package graph

import (
	"math/rand"
	"testing"
)

// accessOrders returns the vertex sequences that stress the cursor: in
// order (every call continues), reversed and shuffled (none does), every
// vertex twice in a row (i then i again), and n-1 then 0.
func accessOrders(ids []int) map[string][]int {
	reversed := make([]int, len(ids))
	twice := make([]int, 0, 2*len(ids))
	for j, i := range ids {
		reversed[len(ids)-1-j] = i
		twice = append(twice, i, i)
	}
	shuffled := append([]int(nil), ids...)
	rand.New(rand.NewSource(int64(len(ids)))).Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	orders := map[string][]int{"in-order": ids, "reversed": reversed, "shuffled": shuffled, "twice": twice}
	if len(ids) > 0 {
		orders["last-then-first"] = []int{ids[len(ids)-1], ids[0]}
	}
	return orders
}

// checkAccessOrders drives every accessor of the compressed graph cg
// through the one buffer nb over ids in every order — out only, in only,
// the two alternating per vertex as the engine's one Context.nbuf does,
// and weighted only (the cursor carries the edge index too) — against the
// flat graph it was compressed from.
func checkAccessOrders(t *testing.T, nb *NeighborBuf, flat, cg *Graph, ids []int) {
	t.Helper()
	for name, order := range accessOrders(ids) {
		for _, mode := range []string{"out", "in", "both", "weighted"} {
			for _, i := range order {
				if mode == "out" || mode == "both" {
					want := flat.OutNeighbors(i)
					if got := cg.OutNeighborsWith(nb, i); !equalIDs(got, want) {
						t.Fatalf("%s/%s: OutNeighborsWith(%d) = %v, want %v", name, mode, i, got, want)
					}
				}
				if (mode == "in" || mode == "both") && flat.HasInEdges() {
					want := flat.InNeighbors(i)
					if got := cg.InNeighborsWith(nb, i); !equalIDs(got, want) {
						t.Fatalf("%s/%s: InNeighborsWith(%d) = %v, want %v", name, mode, i, got, want)
					}
				}
				if mode == "weighted" && flat.HasWeights() {
					wantN, wantW := flat.OutEdgesWeighted(i)
					gotN, gotW := cg.OutEdgesWeightedWith(nb, i)
					if !equalIDs(gotN, wantN) || len(gotW) != len(wantW) {
						t.Fatalf("%s: OutEdgesWeightedWith(%d) = %v, want %v", name, i, gotN, wantN)
					}
					for j := range wantW {
						if gotW[j] != wantW[j] {
							t.Fatalf("%s: weight %d of vertex %d = %d, want %d", name, j, i, gotW[j], wantW[j])
						}
					}
					j := 0
					cg.ForEachOutEdgeWeighted(i, func(v VertexID, w uint32) {
						if v != wantN[j] || w != wantW[j] {
							t.Fatalf("%s: ForEachOutEdgeWeighted(%d) edge %d = (%d, %d), want (%d, %d)", name, i, j, v, w, wantN[j], wantW[j])
						}
						j++
					})
					if j != len(wantN) {
						t.Fatalf("%s: ForEachOutEdgeWeighted(%d) streamed %d edges, want %d", name, i, j, len(wantN))
					}
				}
			}
		}
	}
}

// TestCompressedAccessOrders covers the places a word-at-a-time skip and
// an in-order cursor go wrong. Every graph is weighted by edge insertion
// index, so an edge offset that is off by one shows as a wrong weight;
// one NeighborBuf serves every case, direction and order in turn.
func TestCompressedAccessOrders(t *testing.T) {
	const big = 40000 // ids from 2^13 up take three varint bytes after zigzag
	cases := []struct {
		name  string
		n     int
		edges func(add func(u, v int))
		// ids to access; nil means every vertex.
		ids []int
	}{
		{
			// One-byte varints only: every word holds eight ends, so the
			// skip count k equals a word's ends at every eighth edge.
			name: "one-byte-k-equals-ends", n: 200,
			edges: func(add func(u, v int)) {
				for u := 0; u < 200; u++ {
					for j := 0; j < 1+u%9; j++ {
						add(u, j*7%60)
					}
				}
			},
		},
		{
			// Six one-byte varints then a three-byte one: the first word
			// holds exactly k = 6 ends and its tail belongs to varint 7.
			name: "ends-equal-k-with-tail", n: big,
			edges: func(add func(u, v int)) {
				for j := 0; j < 6; j++ {
					add(0, j)
				}
				add(1, 30000)
				add(1, 2)
				add(2, 1)
			},
			ids: []int{0, 1, 2, 3, 63, 64, big - 1},
		},
		{
			// One-, two- and three-byte varints with negative deltas
			// (unsorted adjacency), so varints straddle word boundaries at
			// every alignment.
			name: "mixed-widths-straddle", n: big,
			edges: func(add func(u, v int)) {
				for u := 0; u < 200; u++ {
					add(u, 30000+u)
					add(u, u)
					add(u, 100+u)
					if u%3 == 0 {
						add(u, big-1-u)
						add(u, u+1)
					}
				}
			},
			ids: seq(0, 202),
		},
		{
			// Four-byte varints need deltas from 2^20.
			name: "four-byte", n: 1<<20 + 100,
			edges: func(add func(u, v int)) {
				add(3, 1<<20+5)
				add(3, 2)
				add(3, 1<<20+50)
				add(4, 2)
				add(4, 1<<20+10)
				add(70, 1<<20+1)
				add(1<<20+99, 0)
			},
			ids: []int{0, 3, 4, 5, 63, 64, 70, 71, 1<<20 + 98, 1<<20 + 99},
		},
		{
			name: "zero-degree-runs", n: 300,
			edges: func(add func(u, v int)) {
				add(0, 299)
				add(130, 1)
				add(130, 250)
				add(299, 0)
			},
		},
		{
			// The last block's stream is three bytes: any skip in it runs
			// within 8 bytes of len(data) and must not load a word.
			name: "short-last-block", n: 130,
			edges: func(add func(u, v int)) {
				for u := 0; u < 128; u++ {
					add(u, (u*5)%130)
					add(u, (u*11)%130)
				}
				add(128, 3)
				add(129, 5)
				add(129, 9)
			},
		},
		{
			name: "stream-under-8-bytes", n: 3,
			edges: func(add func(u, v int)) {
				add(0, 1)
				add(0, 2)
				add(1, 0)
				add(2, 2)
			},
		},
		{
			// A hub whose own stream is ~90 KiB, with low-degree vertices
			// behind it in the same block: reaching them skips more than
			// 64 KiB.
			name: "hub-block-over-64KiB", n: big,
			edges: func(add func(u, v int)) {
				for j := 0; j < 15000; j++ {
					add(5, j)
					add(5, big-1-j)
				}
				for u := 6; u < 70; u++ {
					add(u, u-1)
					add(u, 20000+u)
				}
			},
			ids: seq(0, 72),
		},
	}
	var nb NeighborBuf
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wb WeightedBuilder
			wb.ForceN(tc.n)
			wb.SetBase(0)
			wb.BuildInEdges()
			w := uint32(0)
			tc.edges(func(u, v int) {
				wb.AddEdge(VertexID(u), VertexID(v), w)
				w++
			})
			flat := wb.MustBuild()
			cg, err := flat.Compress()
			if err != nil {
				t.Fatal(err)
			}
			if err := cg.Validate(); err != nil {
				t.Fatal(err)
			}
			ids := tc.ids
			if ids == nil {
				ids = seq(0, tc.n)
			}
			checkAccessOrders(t, &nb, flat, cg, ids)
		})
	}
}

func seq(lo, hi int) []int {
	s := make([]int, hi-lo)
	for i := range s {
		s[i] = lo + i
	}
	return s
}

// TestSkipVarints checks the word-wise skip against a byte-at-a-time
// count on streams of every varint width, at every start offset and for
// every k, including streams shorter than a word.
func TestSkipVarints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var data []byte
		var starts []uint64 // starts[j] is where varint j begins; one extra for the end
		for v, count := 0, 1+rng.Intn(120); v < count; v++ {
			starts = append(starts, uint64(len(data)))
			width := 1 + rng.Intn(10)
			if trial%2 == 0 {
				width = 1 + rng.Intn(2)
			}
			data = appendUvarint(data, uint64(1)<<(7*(width-1))|uint64(rng.Intn(128)))
		}
		starts = append(starts, uint64(len(data)))
		for from := range starts {
			for k := 0; from+k < len(starts); k++ {
				if got := skipVarints(data, starts[from], uint64(k)); got != starts[from+k] {
					t.Fatalf("trial %d: skipVarints(% x, %d, %d) = %d, want %d", trial, data, starts[from], k, got, starts[from+k])
				}
			}
		}
	}
}

// freshNeighbors decodes vertex i of c through a new buffer, so through
// locate and never through a cursor.
func freshNeighbors(c *compressedAdj, i int) ([]VertexID, uint64) {
	var nb NeighborBuf
	ns, edge := nb.neighbors(c, i)
	return append([]VertexID(nil), ns...), edge
}

// TestCursorForwardSkip walks random strictly increasing vertex sequences
// — the order a slot-order superstep asks for — through one NeighborBuf:
// gaps of one vertex, of a few, of most of a block and of several blocks,
// degree-0 vertices, hubs whose varints run past a word, always the last
// vertex, and calls that alternate between the out and in adjacencies.
// Every list and edge index must equal a fresh locate decode.
func TestCursorForwardSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(900)
		var b Builder
		b.ForceN = n
		b.SetBase(0)
		b.BuildInEdges()
		for u := 0; u < n; u++ {
			d := rng.Intn(6)
			switch rng.Intn(8) {
			case 0, 1, 2:
				d = 0
			case 3:
				d = 40 + rng.Intn(200)
			}
			for j := 0; j < d; j++ {
				b.AddEdge(VertexID(u), VertexID(rng.Intn(n)))
			}
		}
		cg, err := b.MustBuild().Compress()
		if err != nil {
			t.Fatal(err)
		}
		maxGap := []int{1, 4, CompressedBlockSize, 4 * CompressedBlockSize}[trial%4]
		var seq []int
		for i := rng.Intn(3); i < n-1; i += 1 + rng.Intn(maxGap) {
			seq = append(seq, i)
		}
		seq = append(seq, n-1)
		var nb NeighborBuf
		for _, i := range seq {
			dirs := [][]*compressedAdj{{cg.outC}, {cg.inC}, {cg.outC, cg.inC}}[rng.Intn(3)]
			for _, c := range dirs {
				got, gotEdge := nb.neighbors(c, i)
				want, wantEdge := freshNeighbors(c, i)
				if !equalIDs(got, want) || gotEdge != wantEdge {
					t.Fatalf("trial %d (n=%d, gaps ≤ %d): vertex %d = %v at edge %d, a fresh decode gives %v at edge %d",
						trial, n, maxGap, i, got, gotEdge, want, wantEdge)
				}
			}
		}
	}
}

// TestCursorForwardSkipCorruptBlock is the corrupt-block seed: vertex 1's
// two varints never end inside data, and the bytes after data — still
// within its capacity — would decode as a valid list. Continuing from
// vertex 0 to vertex 2 skips forward across vertex 1, and that skip must
// stop at the end of data with a panic, never decode past it.
func TestCursorForwardSkipCorruptBlock(t *testing.T) {
	backing := []byte{0x02, 0x80, 0x80, 0x02, 0x02, 0x02, 0x02, 0x02}
	c := &compressedAdj{
		n: 3, m: 4,
		deg:       []uint32{1, 2, 1},
		blockOff:  []uint64{0, 3},
		blockEdge: []uint64{0, 4},
		data:      backing[:3],
	}
	var nb NeighborBuf
	if got, _ := nb.neighbors(c, 0); !equalIDs(got, []VertexID{1}) {
		t.Fatalf("vertex 0 = %v, want [1]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("the forward skip ran past the end of data without panicking")
		}
	}()
	got, _ := nb.neighbors(c, 2)
	t.Fatalf("vertex 2 decoded as %v from bytes past the end of data", got)
}

// TestCompressedHostileBlockTable: an interior block offset beyond the
// data, in front of a non-monotone one, is an error from the validator —
// it used to slice data by it and panic.
func TestCompressedHostileBlockTable(t *testing.T) {
	deg := make([]uint32, CompressedBlockSize+1)
	deg[0] = 1
	_, err := NewCompressedOut(0, len(deg), CompressedParts{
		Deg:       deg,
		BlockOff:  []uint64{0, 1 << 40, 1},
		BlockEdge: []uint64{0, 1, 1},
		Data:      []byte{0x00},
	}, nil)
	if err == nil {
		t.Fatal("NewCompressedOut admitted a block offset beyond the data")
	}
}
