package algorithms

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ipregel/internal/core"
	"ipregel/internal/graph"
)

func randomWeightedGraph(seed int64, n, m int, inEdges bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var wb graph.WeightedBuilder
	wb.ForceN(n)
	wb.SetBase(1)
	if inEdges {
		wb.BuildInEdges()
	}
	for i := 0; i < m; i++ {
		wb.AddEdge(graph.VertexID(1+rng.Intn(n)), graph.VertexID(1+rng.Intn(n)), uint32(1+rng.Intn(50)))
	}
	return wb.MustBuild()
}

func TestWeightedSSSPMatchesDijkstra(t *testing.T) {
	g := randomWeightedGraph(9, 150, 900, false)
	want := RefWeightedSSSP(g, 2)
	for _, cfg := range []core.Config{
		{Combiner: core.CombinerMutex},
		{Combiner: core.CombinerSpin},
		{Combiner: core.CombinerMutex, SelectionBypass: true},
		{Combiner: core.CombinerSpin, SelectionBypass: true, CheckInvariants: true},
	} {
		cfg.Threads = 3
		got, rep, err := WeightedSSSP(g, cfg, 2)
		if err != nil {
			t.Fatalf("%s: %v", cfg.VersionName(), err)
		}
		if !rep.Converged {
			t.Fatalf("%s: not converged", cfg.VersionName())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: dist[%d] = %d, want %d", cfg.VersionName(), i, got[i], want[i])
			}
		}
	}
}

// Property: weighted SSSP agrees with Dijkstra on random weighted graphs.
func TestWeightedSSSPProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 2
		m := int(mRaw % 200)
		g := randomWeightedGraph(seed, n, m, false)
		want := RefWeightedSSSP(g, 1)
		got, _, err := WeightedSSSP(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true, Threads: 2}, 1)
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSSSPRejectsPull(t *testing.T) {
	g := randomWeightedGraph(3, 20, 60, true)
	if _, _, err := WeightedSSSP(g, core.Config{Direction: core.DirectionPull}, 1); err == nil {
		t.Fatal("pull transport accepted for weighted SSSP")
	}
}

func TestWeightedSSSPRequiresWeights(t *testing.T) {
	g := testGraphs()["ring"]
	if _, _, err := WeightedSSSP(g, core.Config{}, 1); err == nil {
		t.Fatal("unweighted graph accepted")
	}
}

func TestWeightedVsUnitWeights(t *testing.T) {
	// With all weights 1, weighted SSSP equals hop-count SSSP.
	var wb graph.WeightedBuilder
	var b graph.Builder
	rng := rand.New(rand.NewSource(4))
	b.ForceN = 60
	b.SetBase(1)
	wb.ForceN(60)
	wb.SetBase(1)
	for i := 0; i < 300; i++ {
		s, d := graph.VertexID(1+rng.Intn(60)), graph.VertexID(1+rng.Intn(60))
		wb.AddEdge(s, d, 1)
		b.AddEdge(s, d)
	}
	wg, ug := wb.MustBuild(), b.MustBuild()
	wDist, _, err := WeightedSSSP(wg, core.Config{Combiner: core.CombinerSpin}, 1)
	if err != nil {
		t.Fatal(err)
	}
	uDist, _, err := SSSP(ug, core.Config{Combiner: core.CombinerSpin}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wDist {
		if wDist[i] != uDist[i] {
			t.Fatalf("unit-weight mismatch at %d: %d vs %d", i, wDist[i], uDist[i])
		}
	}
}

func TestRefWeightedSSSPStaleEntries(t *testing.T) {
	// Graph designed to push stale heap entries: a long cheap path and a
	// short expensive edge to the same vertex.
	var wb graph.WeightedBuilder
	wb.SetBase(0)
	wb.AddEdge(0, 1, 100) // direct but expensive
	wb.AddEdge(0, 2, 1)
	wb.AddEdge(2, 3, 1)
	wb.AddEdge(3, 1, 1) // total 3 via the detour
	g := wb.MustBuild()
	dist := RefWeightedSSSP(g, 0)
	if dist[1] != 3 {
		t.Fatalf("dist[1] = %d, want 3", dist[1])
	}
	if out := RefWeightedSSSP(g, 99); out[0] != Infinity {
		t.Fatal("invalid source should leave all unreachable")
	}
}
