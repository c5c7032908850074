package graph

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// testGraphs builds the shape matrix the round-trip properties run
// over: empty, single-vertex, hub-heavy (star), random, weighted,
// base-shifted, with and without in-edges.
func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	random := func(n, m int, base VertexID, inEdges bool) *Graph {
		var b Builder
		b.ForceN = n
		b.SetBase(base)
		if inEdges {
			b.BuildInEdges()
		}
		for i := 0; i < m; i++ {
			b.AddEdge(base+VertexID(rng.Intn(n)), base+VertexID(rng.Intn(n)))
		}
		return b.MustBuild()
	}
	star := func(n int) *Graph {
		var b Builder
		b.ForceN = n
		b.SetBase(0)
		b.BuildInEdges()
		for i := 1; i < n; i++ {
			b.AddEdge(0, VertexID(i))
			b.AddEdge(VertexID(i), 0)
		}
		return b.MustBuild()
	}
	weighted := func(n, m int) *Graph {
		var wb WeightedBuilder
		wb.ForceN(n)
		wb.SetBase(0)
		for i := 0; i < m; i++ {
			wb.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), uint32(rng.Intn(1000)))
		}
		return wb.MustBuild()
	}
	single := func() *Graph {
		var b Builder
		b.ForceN = 1
		b.SetBase(0)
		b.AddEdge(0, 0)
		return b.MustBuild()
	}
	lone := func() *Graph {
		var b Builder
		b.ForceN = 1
		b.SetBase(7)
		return b.MustBuild()
	}
	return map[string]*Graph{
		"empty":        {},
		"lone-vertex":  lone(),
		"self-loop":    single(),
		"star-200":     star(200),
		"random-130":   random(130, 900, 0, false),
		"random-in":    random(257, 2000, 0, true),
		"base-1":       random(100, 700, 1, true),
		"weighted-150": weighted(150, 1100),
	}
}

func TestCompressRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			cg, err := g.Compress()
			if err != nil {
				t.Fatalf("Compress: %v", err)
			}
			if g.N() > 0 && g.M() > 0 && !cg.IsCompressed() {
				t.Fatal("Compress returned a flat graph")
			}
			if err := cg.Validate(); err != nil && cg.IsCompressed() {
				t.Fatalf("Validate: %v", err)
			}
			if cg.N() != g.N() || cg.M() != g.M() || cg.Base() != g.Base() {
				t.Fatalf("shape changed: n=%d/%d m=%d/%d base=%d/%d", cg.N(), g.N(), cg.M(), g.M(), cg.Base(), g.Base())
			}
			if cg.HasInEdges() != g.HasInEdges() || cg.HasWeights() != g.HasWeights() {
				t.Fatal("in-edge/weight presence changed")
			}
			var nb NeighborBuf
			for i := 0; i < g.N(); i++ {
				if cg.OutDegree(i) != g.OutDegree(i) {
					t.Fatalf("OutDegree(%d) = %d, want %d", i, cg.OutDegree(i), g.OutDegree(i))
				}
				if cg.outC != nil {
					if _, edge := cg.outC.locate(i); edge != uint64(g.outOff[i]) {
						t.Fatalf("locate(%d) edge = %d, want %d", i, edge, g.outOff[i])
					}
				}
				want := g.OutNeighbors(i)
				got := cg.OutNeighborsWith(&nb, i)
				if !equalIDs(got, want) {
					t.Fatalf("OutNeighborsWith(%d) = %v, want %v", i, got, want)
				}
				var streamed []VertexID
				cg.ForEachOutNeighbor(i, func(v VertexID) { streamed = append(streamed, v) })
				if !equalIDs(streamed, want) {
					t.Fatalf("ForEachOutNeighbor(%d) = %v, want %v", i, streamed, want)
				}
				if g.HasInEdges() {
					if !equalIDs(cg.InNeighborsWith(&nb, i), g.InNeighbors(i)) {
						t.Fatalf("InNeighborsWith(%d) mismatch", i)
					}
					if cg.InDegree(i) != g.InDegree(i) {
						t.Fatalf("InDegree(%d) mismatch", i)
					}
				}
				if g.HasWeights() {
					wa, ww := g.OutEdgesWeighted(i)
					ca, cw := cg.OutEdgesWeightedWith(&nb, i)
					if !equalIDs(ca, wa) || !reflect.DeepEqual(append([]uint32{}, cw...), append([]uint32{}, ww...)) {
						t.Fatalf("OutEdgesWeightedWith(%d) mismatch", i)
					}
				}
			}
			// flat → compressed → flat is the identity on the arrays
			// (the zero-value empty graph normalises nil offsets to [0]).
			back := cg.Decompress()
			if back.N() != g.N() || back.M() != g.M() {
				t.Fatal("Decompress changed the shape")
			}
			if g.N() > 0 && (!reflect.DeepEqual(back.outOff, g.outOff) || !equalIDs(back.outAdj, g.outAdj)) {
				t.Fatal("Decompress did not restore the out-CSR")
			}
			if g.HasInEdges() && (!reflect.DeepEqual(back.inOff, g.inOff) || !equalIDs(back.inAdj, g.inAdj)) {
				t.Fatal("Decompress did not restore the in-CSR")
			}
		})
	}
}

func equalIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompressedSliceAccessorsPanic(t *testing.T) {
	g := testGraphs(t)["random-in"]
	cg, err := g.Compress()
	if err != nil {
		t.Fatal(err)
	}
	wantPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); !errors.Is(r.(error), ErrCompressedAdjacency) {
				t.Fatalf("%s: panic = %v, want ErrCompressedAdjacency", name, r)
			}
		}()
		fn()
		t.Fatalf("%s did not panic", name)
	}
	wantPanic("OutNeighbors", func() { cg.OutNeighbors(0) })
	wantPanic("InNeighbors", func() { cg.InNeighbors(0) })
	wg, _ := testGraphs(t)["weighted-150"].Compress()
	wantPanic("OutEdgesWeighted", func() { wg.OutEdgesWeighted(0) })
	// Unweighted Transpose is supported on the compressed backend (the two
	// compressed CSRs swap roles); only the weighted variant still panics,
	// because weights are edge-ordered against the original out-CSR.
	wantPanic("Transpose (weighted)", func() { wg.Transpose() })
	if _, err := cg.StripOutAdjacency(); !errors.Is(err, ErrCompressedAdjacency) {
		t.Fatalf("StripOutAdjacency err = %v, want ErrCompressedAdjacency", err)
	}
}

// TestCompressedTranspose checks that an unweighted compressed graph
// transposes without decompressing: edge-for-edge equal to the flat
// transpose, with the in-adjacency swapped in as the new out-CSR.
func TestCompressedTranspose(t *testing.T) {
	for _, name := range []string{"random-in", "random-130"} {
		g := testGraphs(t)[name]
		if g == nil {
			t.Fatalf("missing test graph %q", name)
		}
		cg, err := g.Compress()
		if err != nil {
			t.Fatal(err)
		}
		ft := g.Transpose()
		ct := cg.Transpose()
		if !ct.IsCompressed() {
			t.Fatalf("%s: transpose of a compressed graph is flat", name)
		}
		if !ct.HasInEdges() {
			t.Fatalf("%s: compressed transpose lost the in-adjacency", name)
		}
		var buf NeighborBuf
		for i := 0; i < g.N(); i++ {
			if got, want := ct.OutNeighborsWith(&buf, i), ft.OutNeighbors(i); !equalIDs(got, want) {
				t.Fatalf("%s: transpose out-neighbours of %d = %v, want %v", name, i, got, want)
			}
		}
		var ibuf NeighborBuf
		for i := 0; i < g.N(); i++ {
			if got, want := ct.InNeighborsWith(&ibuf, i), g.OutNeighbors(i); !equalIDs(got, want) {
				t.Fatalf("%s: transpose in-neighbours of %d = %v, want %v", name, i, got, want)
			}
		}
	}
}

func TestBuilderCompress(t *testing.T) {
	var b Builder
	b.Compress()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		b.AddEdge(VertexID(rng.Intn(500)), VertexID(rng.Intn(500)))
	}
	cg := b.MustBuild()
	if !cg.IsCompressed() {
		t.Fatal("Builder.Compress produced a flat graph")
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Sorted deltas must compress below the flat layout.
	flat := cg.Decompress()
	if cg.MemoryBytes() >= flat.MemoryBytes() {
		t.Fatalf("compressed %d B >= flat %d B", cg.MemoryBytes(), flat.MemoryBytes())
	}
	// Adjacency must be sorted (Compress implies SortAdjacency).
	var nb NeighborBuf
	for i := 0; i < cg.N(); i++ {
		ns := cg.OutNeighborsWith(&nb, i)
		for j := 1; j < len(ns); j++ {
			if ns[j] < ns[j-1] {
				t.Fatalf("vertex %d adjacency not sorted: %v", i, ns)
			}
		}
	}
}

func TestCompressedWithInEdges(t *testing.T) {
	g := testGraphs(t)["random-130"]
	cg, err := g.Compress()
	if err != nil {
		t.Fatal(err)
	}
	ci := cg.WithInEdges()
	fi := g.WithInEdges()
	if !ci.IsCompressed() || !ci.HasInEdges() {
		t.Fatal("WithInEdges on compressed lost a property")
	}
	var nb NeighborBuf
	for i := 0; i < g.N(); i++ {
		if !equalIDs(ci.InNeighborsWith(&nb, i), fi.InNeighbors(i)) {
			t.Fatalf("in-neighbours of %d differ", i)
		}
	}
}

func TestCompressedStatsAndEdges(t *testing.T) {
	g := testGraphs(t)["random-130"]
	cg, err := g.Compress()
	if err != nil {
		t.Fatal(err)
	}
	fs, cs := ComputeStats("g", g), ComputeStats("g", cg)
	if fs != cs {
		t.Fatalf("stats differ: %+v vs %+v", fs, cs)
	}
	var fe, ce [][2]VertexID
	g.Edges(func(s, d VertexID) bool { fe = append(fe, [2]VertexID{s, d}); return true })
	cg.Edges(func(s, d VertexID) bool { ce = append(ce, [2]VertexID{s, d}); return true })
	if !reflect.DeepEqual(fe, ce) {
		t.Fatal("Edges order differs between backends")
	}
	// Early stop must work on the compressed scan too.
	n := 0
	cg.Edges(func(s, d VertexID) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop ran %d edges", n)
	}
	if sym := cg.Symmetrize(false); sym.Validate() != nil || sym.M() == 0 {
		t.Fatal("Symmetrize on compressed broken")
	}
}

// blockDecodeSeed serialises compressCSR output into the fuzz
// parameter shape so the corpus starts from a valid encoding.
func blockDecodeSeed(g *Graph) (int, []byte, []byte, []byte) {
	c := compressCSR(g.n, g.outOff, g.outAdj)
	degB := make([]byte, len(c.deg))
	for i, d := range c.deg {
		degB[i] = byte(d)
	}
	var tbl []byte
	for _, v := range c.blockOff[1 : len(c.blockOff)-1] {
		tbl = binary.LittleEndian.AppendUint64(tbl, v)
	}
	for _, v := range c.blockEdge[1 : len(c.blockEdge)-1] {
		tbl = binary.LittleEndian.AppendUint64(tbl, v)
	}
	return c.n, degB, tbl, c.data
}

// referenceDecode walks an admitted adjacency's whole stream with the
// validating decoder: independent of decode, skipVarints and the cursor.
func referenceDecode(t *testing.T, c *compressedAdj) [][]VertexID {
	t.Helper()
	out := make([][]VertexID, c.n)
	var pos uint64
	for i, d := range c.deg {
		prev := int64(0)
		for ; d > 0; d-- {
			u, np, err := readUvarint(c.data, pos)
			if err != nil {
				t.Fatal(err)
			}
			pos = np
			prev += unzigzag(u)
			out[i] = append(out[i], VertexID(prev))
		}
	}
	return out
}

// FuzzBlockDecode is the decoder-level fuzz target: hostile degree
// arrays, block tables, and varint streams must be rejected with an
// error — never a panic, never an out-of-range neighbour surviving into
// the accessors. The block sweep cut into spans must return the serial
// sweep's exact error. Accepted inputs must decode identically through
// scan and through one NeighborBuf in every access order.
func FuzzBlockDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	var b Builder
	b.ForceN = 150
	b.SetBase(0)
	for i := 0; i < 600; i++ {
		b.AddEdge(VertexID(rng.Intn(150)), VertexID(rng.Intn(150)))
	}
	n, degB, tbl, data := blockDecodeSeed(b.MustBuild())
	f.Add(n, degB, tbl, data)
	f.Add(0, []byte{}, []byte{}, []byte{})
	f.Add(3, []byte{1, 2, 0}, []byte{}, []byte{0x80})                                                    // truncated varint
	f.Add(2, []byte{1, 1}, []byte{}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // overflowing delta
	f.Add(2, []byte{2, 0}, []byte{}, []byte{0x02, 0x03})                                                 // non-monotone run: 1 then -1 → out of range
	hostileDeg := make([]byte, CompressedBlockSize+1)
	hostileDeg[0] = 1
	hostileTbl := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<40), 1)
	f.Add(len(hostileDeg), hostileDeg, hostileTbl, []byte{0x00}) // blockOff {0, 1<<40, 1}: interior offset beyond the data

	f.Fuzz(func(t *testing.T, n int, degB, tbl, data []byte) {
		if n < 0 {
			n = -(n + 1)
		}
		n %= 300
		deg := make([]uint32, n)
		for i := range deg {
			if len(degB) > 0 {
				deg[i] = uint32(degB[i%len(degB)])
			}
		}
		nBlocks := (n + CompressedBlockSize - 1) / CompressedBlockSize
		blockOff := make([]uint64, nBlocks+1)
		blockEdge := make([]uint64, nBlocks+1)
		// Interior table entries come from the fuzzed bytes (hostile);
		// the end entries are derived so the seed corpus stays valid.
		for b := 1; b < nBlocks; b++ {
			if len(tbl) >= 8*b {
				blockOff[b] = binary.LittleEndian.Uint64(tbl[8*(b-1):])
			}
			if len(tbl) >= 8*(nBlocks-1+b) {
				blockEdge[b] = binary.LittleEndian.Uint64(tbl[8*(nBlocks-2+b):])
			}
		}
		blockOff[nBlocks] = uint64(len(data))
		var m uint64
		for _, d := range deg {
			m += uint64(d)
		}
		blockEdge[nBlocks] = m
		c, err := newCompressedAdj(n, deg, blockOff, blockEdge, data)
		if ref := referenceAdmit(n, deg, blockOff, blockEdge, data); (err == nil) != (ref == nil) {
			t.Fatalf("validators disagree: check says %v, the reference sweep says %v", err, ref)
		}
		requireSpansAgree(t, n, deg, blockOff, blockEdge, data, err)
		if err != nil {
			return // rejected, as hostile inputs should be
		}
		// Admitted: every access path must agree with the validating
		// decoder and stay in range.
		want := referenceDecode(t, c)
		for _, ns := range want {
			for _, v := range ns {
				if int(v) >= n {
					t.Fatalf("neighbour %d out of range (n=%d)", v, n)
				}
			}
		}
		fromScan := make([][]VertexID, n)
		c.scan(func(u int, v VertexID) bool { fromScan[u] = append(fromScan[u], v); return true })
		for i := range want {
			if !equalIDs(fromScan[i], want[i]) {
				t.Fatalf("scan: vertex %d = %v, want %v", i, fromScan[i], want[i])
			}
		}
		var nb NeighborBuf
		for name, order := range accessOrders(seq(0, n)) {
			for _, i := range order {
				got, edge := nb.neighbors(c, i)
				if _, wantEdge := c.locate(i); !equalIDs(got, want[i]) || edge != wantEdge {
					t.Fatalf("%s: vertex %d through the buffer = %v at edge %d, want %v at edge %d", name, i, got, edge, want[i], wantEdge)
				}
			}
		}
		prev := uint64(0)
		for i := 0; i < n; i++ {
			if _, e := c.locate(i); e < prev || e > c.m {
				t.Fatalf("locate's edge index not monotone within [0, m] at %d", i)
			} else {
				prev = e
			}
		}
	})
}

// FuzzCompressedRoundTrip feeds arbitrary edge lists through
// flat → Compress → access/Decompress and requires the identity, with
// neighbour order preserved (the property the engine-parity battery
// rests on).
func FuzzCompressedRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0})
	f.Add([]byte{5, 5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var b Builder
		b.ForceN = 256
		b.SetBase(0)
		b.BuildInEdges()
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(VertexID(raw[i]), VertexID(raw[i+1]))
		}
		g := b.MustBuild()
		cg, err := g.Compress()
		if err != nil {
			t.Fatal(err)
		}
		if err := cg.Validate(); err != nil {
			t.Fatal(err)
		}
		var nb NeighborBuf
		checkAccessOrders(t, &nb, g, cg, seq(0, g.N()))
		back := cg.Decompress()
		if !reflect.DeepEqual(back.outOff, g.outOff) || !equalIDs(back.outAdj, g.outAdj) {
			t.Fatal("round trip not the identity")
		}
	})
}
