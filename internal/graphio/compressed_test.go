package graphio

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ipregel/internal/graph"
)

var updateIPG3Golden = flag.Bool("update-ipg3-golden", false, "rewrite the IPG3 golden fixtures from the current writer")

// goldenIPG3Graph builds the deterministic graph pinned by the golden
// fixture: fixed edges, a non-zero base, degrees crossing a block
// boundary (70 vertices > one 64-vertex block), including an isolated
// vertex and a hub.
func goldenIPG3Graph() *graph.Graph {
	var b graph.Builder
	b.ForceN = 70
	b.SetBase(1)
	b.Compress()
	for i := 0; i < 69; i++ {
		b.AddEdge(1, graph.VertexID(2+i)) // hub at the base vertex
		if i%3 != 0 {
			b.AddEdge(graph.VertexID(2+i), 1)
		}
		if i%7 == 0 {
			b.AddEdge(graph.VertexID(2+i), graph.VertexID(2+(i*5)%69))
		}
	}
	return b.MustBuild()
}

func goldenIPG3Weighted() *graph.Graph {
	var wb graph.WeightedBuilder
	wb.ForceN(10)
	wb.SetBase(0)
	for i := 0; i < 25; i++ {
		wb.AddEdge(graph.VertexID(i%10), graph.VertexID((i*3)%10), uint32(100+i))
	}
	g, err := wb.MustBuild().Compress()
	if err != nil {
		panic(err)
	}
	return g
}

// TestIPG3Golden pins the on-disk IPG3 layout byte-for-byte, the same
// way the checkpoint v2 golden pins the snapshot format: any writer
// change that reshapes the bytes fails here first and must be a new
// format version, not a silent break of existing files.
func TestIPG3Golden(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"ipg3_golden.bin", goldenIPG3Graph()},
		{"ipg3_weighted_golden.bin", goldenIPG3Weighted()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, tc.g); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name)
			if *updateIPG3Golden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden fixture missing (regenerate with -update-ipg3-golden): %v", err)
			}
			got := buf.Bytes()
			if !bytes.Equal(got, want) {
				n := len(got)
				if len(want) < n {
					n = len(want)
				}
				for i := 0; i < n; i++ {
					if got[i] != want[i] {
						t.Fatalf("byte %d: got %#02x, golden %#02x (lengths %d vs %d)", i, got[i], want[i], len(got), len(want))
					}
				}
				t.Fatalf("length changed: got %d bytes, golden %d", len(got), len(want))
			}
		})
	}
}

// TestIPG3GoldenIsLive proves the checked-in fixture still loads (both
// via the streaming reader and the mmap loader) into the exact graph
// that produced it — a golden that can't be read back is pinning a
// corpse.
func TestIPG3GoldenIsLive(t *testing.T) {
	if *updateIPG3Golden {
		t.Skip("regenerating fixtures")
	}
	want := goldenIPG3Graph()
	raw, err := os.ReadFile(filepath.Join("testdata", "ipg3_golden.bin"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(raw), FormatBinary, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAdjacency(t, want, got)
	m, err := OpenMapped(filepath.Join("testdata", "ipg3_golden.bin"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	assertSameAdjacency(t, want, m.Graph())
}

// assertSameAdjacency compares two graphs edge-for-edge through the
// iterator path (backend-agnostic), plus weights when present.
func assertSameAdjacency(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Base() != want.Base() || got.HasWeights() != want.HasWeights() {
		t.Fatalf("shape mismatch: n=%d/%d m=%d/%d base=%d/%d weighted=%v/%v",
			got.N(), want.N(), got.M(), want.M(), got.Base(), want.Base(), got.HasWeights(), want.HasWeights())
	}
	var nbW, nbG graph.NeighborBuf
	for i := 0; i < want.N(); i++ {
		w := append([]graph.VertexID(nil), want.OutNeighborsWith(&nbW, i)...)
		g := got.OutNeighborsWith(&nbG, i)
		if len(w) != len(g) {
			t.Fatalf("vertex %d degree %d, want %d", i, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("vertex %d neighbour %d: got %d, want %d", i, j, g[j], w[j])
			}
		}
		if want.HasWeights() {
			_, ww := want.OutEdgesWeightedWith(&nbW, i)
			wcopy := append([]uint32(nil), ww...)
			_, gw := got.OutEdgesWeightedWith(&nbG, i)
			for j := range wcopy {
				if wcopy[j] != gw[j] {
					t.Fatalf("vertex %d weight %d: got %d, want %d", i, j, gw[j], wcopy[j])
				}
			}
		}
	}
}

// TestIPG3RoundTrip covers flat→compressed→IPG3→read across the shape
// matrix: empty, single-vertex, hub-heavy, random, weighted, shifted
// base.
func TestIPG3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	build := func(n, m int, base graph.VertexID) *graph.Graph {
		var b graph.Builder
		b.ForceN = n
		b.SetBase(base)
		for i := 0; i < m; i++ {
			b.AddEdge(base+graph.VertexID(rng.Intn(n)), base+graph.VertexID(rng.Intn(n)))
		}
		return b.MustBuild()
	}
	star := func(n int) *graph.Graph {
		var b graph.Builder
		b.ForceN = n
		b.SetBase(0)
		for i := 1; i < n; i++ {
			b.AddEdge(0, graph.VertexID(i))
		}
		return b.MustBuild()
	}
	weighted := func(n, m int) *graph.Graph {
		var wb graph.WeightedBuilder
		wb.ForceN(n)
		wb.SetBase(0)
		for i := 0; i < m; i++ {
			wb.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), uint32(rng.Intn(9999)))
		}
		return wb.MustBuild()
	}
	single := func() *graph.Graph {
		var b graph.Builder
		b.ForceN = 1
		return b.MustBuild()
	}
	graphs := map[string]*graph.Graph{
		"empty":       {},
		"single":      single(),
		"hub-300":     star(300),
		"random-200":  build(200, 1500, 0),
		"base-5":      build(90, 400, 5),
		"weighted-80": weighted(80, 600),
	}
	for name, flat := range graphs {
		t.Run(name, func(t *testing.T) {
			cg, err := flat.Compress()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteBinary(&buf, cg); err != nil {
				t.Fatal(err)
			}
			got, err := Read(bytes.NewReader(buf.Bytes()), FormatBinary, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if flat.M() > 0 && !got.IsCompressed() {
				t.Fatal("IPG3 read back flat")
			}
			assertSameAdjacency(t, flat, got)
			// flat → compressed → IPG3 → read → Decompress is identity.
			assertSameAdjacency(t, flat, got.Decompress())
		})
	}
}

// TestIPG3BuildInEdges checks the in-adjacency option on the IPG3
// reader matches the flat loader's.
func TestIPG3BuildInEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var b graph.Builder
	b.ForceN = 120
	for i := 0; i < 800; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(120)), graph.VertexID(rng.Intn(120)))
	}
	flat := b.MustBuild().WithInEdges()
	cg, err := flat.Compress()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, cg); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), FormatBinary, Options{BuildInEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasInEdges() {
		t.Fatal("BuildInEdges ignored")
	}
	var nb graph.NeighborBuf
	for i := 0; i < flat.N(); i++ {
		want := flat.InNeighbors(i)
		g := got.InNeighborsWith(&nb, i)
		if len(want) != len(g) {
			t.Fatalf("vertex %d in-degree %d, want %d", i, len(g), len(want))
		}
		for j := range want {
			if want[j] != g[j] {
				t.Fatalf("vertex %d in-neighbour %d: got %d, want %d", i, j, g[j], want[j])
			}
		}
	}
}

// TestOpenMapped exercises the mmap loader across all three formats and
// its error paths.
func TestOpenMapped(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	var b graph.Builder
	b.ForceN = 150
	for i := 0; i < 1000; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(150)), graph.VertexID(rng.Intn(150)))
	}
	flat := b.MustBuild()
	var wb graph.WeightedBuilder
	wb.ForceN(60)
	for i := 0; i < 300; i++ {
		wb.AddEdge(graph.VertexID(rng.Intn(60)), graph.VertexID(rng.Intn(60)), uint32(i))
	}
	wFlat := wb.MustBuild()
	cg, err := flat.Compress()
	if err != nil {
		t.Fatal(err)
	}

	write := func(name string, g *graph.Graph) string {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p1 := write("flat.bin", flat)
	p2 := write("weighted.bin", wFlat)
	p3 := write("compressed.bin", cg)

	for _, tc := range []struct {
		path string
		want *graph.Graph
		comp bool
	}{
		{p1, flat, false},
		{p2, wFlat, false},
		{p3, flat, true},
	} {
		m, err := OpenMapped(tc.path, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if m.Graph().IsCompressed() != tc.comp {
			t.Fatalf("%s: compressed=%v, want %v", tc.path, m.Graph().IsCompressed(), tc.comp)
		}
		if err := m.Graph().Validate(); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		assertSameAdjacency(t, tc.want, m.Graph())
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}

	// BuildInEdges serves a heap in-CSR over the mapped out-CSR (built by
	// the first read below; TestOpenMappedDefersInEdges covers the timing).
	m, err := OpenMapped(p3, Options{BuildInEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Graph().HasInEdges() {
		t.Fatal("BuildInEdges ignored by OpenMapped")
	}
	ref := flat.WithInEdges()
	var nb graph.NeighborBuf
	for i := 0; i < ref.N(); i++ {
		want := ref.InNeighbors(i)
		got := m.Graph().InNeighborsWith(&nb, i)
		if len(want) != len(got) {
			t.Fatalf("vertex %d in-degree mismatch", i)
		}
	}

	// Error paths: damage must be rejected at open time, never deferred
	// to a fault at access time.
	bad := filepath.Join(dir, "bad.bin")
	raw, _ := os.ReadFile(p3)
	if err := os.WriteFile(bad, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(bad, Options{}); err == nil {
		t.Fatal("truncated IPG3 mapped without error")
	}
	if err := os.WriteFile(bad, []byte("IPGRjunkjunkjunkjunkjunkjunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(bad, Options{}); err == nil {
		t.Fatal("bad magic mapped without error")
	}
	if _, err := OpenMapped(p1, Options{MaxVertices: 10}); err == nil {
		t.Fatal("MaxVertices not enforced by OpenMapped")
	}
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-1] ^= 0x40 // flip inside the varint stream
	if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if m2, err := OpenMapped(bad, Options{}); err == nil {
		// A flipped trailing byte can decode to a different in-range
		// neighbour (still a valid graph); it must never crash though.
		assertValidOrFail(t, m2)
	}
}

func assertValidOrFail(t *testing.T, m *Mapped) {
	t.Helper()
	defer m.Close()
	if err := m.Graph().Validate(); err != nil {
		t.Fatalf("OpenMapped admitted a graph that fails Validate: %v", err)
	}
}

// TestIPG3HostileBlockTable: an interior block offset far past the data
// section, followed by a non-monotone one, must be rejected by both
// loaders — the validator used to slice by it before reaching the entry
// that would have failed the monotonicity check.
func TestIPG3HostileBlockTable(t *testing.T) {
	var b graph.Builder
	b.ForceN = graph.CompressedBlockSize + 1 // two blocks
	b.SetBase(0)
	b.AddEdge(0, 0)
	cg, err := b.MustBuild().Compress()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, cg); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	l := computeIPG3Layout(uint64(cg.N()), cg.M(), 1, false)
	binary.LittleEndian.PutUint64(raw[l.blockOffOff+8:], 1<<40) // blockOff = {0, 1<<40, 1}

	if _, err := Read(bytes.NewReader(raw), FormatBinary, Options{}); err == nil {
		t.Fatal("Read admitted a block offset beyond the data")
	}
	path := filepath.Join(t.TempDir(), "hostile.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := OpenMapped(path, Options{}); err == nil {
		m.Close()
		t.Fatal("OpenMapped admitted a block offset beyond the data")
	}
}
