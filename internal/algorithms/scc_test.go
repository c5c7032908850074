package algorithms

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

func TestRefSCCKnownCases(t *testing.T) {
	// Two 3-cycles joined by a one-way bridge, plus a singleton.
	var b graph.Builder
	b.ForceN = 7
	b.SetBase(1)
	for _, e := range [][2]graph.VertexID{
		{1, 2}, {2, 3}, {3, 1}, // SCC {1,2,3}
		{3, 4},                 // bridge
		{4, 5}, {5, 6}, {6, 4}, // SCC {4,5,6}
		// 7 isolated
	} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	want := []uint32{3, 3, 3, 6, 6, 6, 7}
	got := RefSCC(g)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RefSCC[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRefSCCRing(t *testing.T) {
	g := gen.Ring(50, 1)
	labels := RefSCC(g)
	for _, l := range labels {
		if l != 50 {
			t.Fatalf("ring SCC labels = %v, want all 50", labels[:5])
		}
	}
	// Chain: all singletons.
	c := gen.Chain(20, 1)
	for i, l := range RefSCC(c) {
		if l != uint32(i+1) {
			t.Fatalf("chain SCC[%d] = %d", i, l)
		}
	}
}

func TestSCCMatchesTarjanFixedGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":  gen.RMATN(120, 600, 5, 1, true),
		"ring":  gen.Ring(30, 1).WithInEdges(),
		"chain": gen.Chain(15, 1).WithInEdges(),
		"road":  gen.Road(gen.RoadParams{Rows: 6, Cols: 7, Base: 1, BuildInEdges: true}),
	}
	for name, g := range graphs {
		want := RefSCC(g)
		for _, cfg := range []core.Config{
			{Combiner: core.CombinerSpin},
			{Combiner: core.CombinerSpin, SelectionBypass: true},
			{Direction: core.DirectionPull},
			{Combiner: core.CombinerMutex, Threads: 3},
		} {
			got, err := SCC(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.VersionName(), err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: scc[%d] = %d, want %d", name, cfg.VersionName(), i, got[i], want[i])
				}
			}
		}
	}
}

// TestSCCCompressed runs both SCC implementations on block-compressed
// graphs: the trim loop and Tarjan walk adjacency through NeighborBuf
// decode buffers (nested in/out walks in trim, re-fetched frames in the
// iterative Tarjan), so the compressed backend must reproduce the flat
// labels exactly.
func TestSCCCompressed(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMATN(120, 600, 5, 1, true),
		"ring": gen.Ring(30, 1).WithInEdges(),
	}
	for name, g := range graphs {
		cg, err := g.Compress()
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		want := RefSCC(g)
		if got := RefSCC(cg); len(got) != len(want) {
			t.Fatalf("%s: compressed RefSCC returned %d labels, want %d", name, len(got), len(want))
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: compressed RefSCC[%d] = %d, flat %d", name, i, got[i], want[i])
				}
			}
		}
		got, err := SCC(cg, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true, Threads: 2})
		if err != nil {
			t.Fatalf("%s: SCC on compressed: %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: compressed scc[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

// Property: the vertex-centric SCC equals Tarjan on random digraphs.
func TestSCCProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 1
		m := int(mRaw % 160)
		rng := rand.New(rand.NewSource(seed))
		var b graph.Builder
		b.ForceN = n
		b.SetBase(1)
		b.BuildInEdges()
		for i := 0; i < m; i++ {
			b.AddEdge(graph.VertexID(1+rng.Intn(n)), graph.VertexID(1+rng.Intn(n)))
		}
		g := b.MustBuild()
		want := RefSCC(g)
		got, err := SCC(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true, Threads: 2})
		if err != nil {
			t.Log(err)
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed=%d n=%d m=%d: scc[%d]=%d want %d", seed, n, m, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCEmptyAndLoops(t *testing.T) {
	var b graph.Builder
	g := b.MustBuild()
	labels, err := SCC(g, core.Config{})
	if err != nil || len(labels) != 0 {
		t.Fatalf("empty SCC: %v %v", labels, err)
	}
	var b2 graph.Builder
	b2.BuildInEdges()
	b2.AddEdge(3, 3) // single self-loop vertex
	g2 := b2.MustBuild()
	labels, err = SCC(g2, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != 3 {
		t.Fatalf("self-loop SCC = %d, want 3", labels[0])
	}
}
