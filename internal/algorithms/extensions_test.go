package algorithms

import (
	"math"
	"testing"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

func TestPageRankConvergedMatchesFixedPoint(t *testing.T) {
	g := gen.RMATN(300, 1800, 17, 1, true)
	const tol = 1e-10
	for _, cfg := range []core.Config{{Combiner: core.CombinerMutex}, {Combiner: core.CombinerSpin}, {Direction: core.DirectionPull}} {
		comb := cfg.VersionName()
		cfg.Threads, cfg.MaxSupersteps = 2, 2000
		got, rep, err := PageRankConverged(g, cfg, tol)
		if err != nil {
			t.Fatalf("%v: %v", comb, err)
		}
		if !rep.Converged {
			t.Fatalf("%v: did not converge", comb)
		}
		// The converged vector must agree with a long fixed-iteration run.
		want := RefPageRank(g, rep.Supersteps+20)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("%v: rank[%d] = %g, want %g", comb, i, got[i], want[i])
			}
		}
		// Convergence should beat the worst case by a wide margin.
		if rep.Supersteps >= 2000 {
			t.Fatalf("%v: hit the superstep cap", comb)
		}
	}
}

func TestPageRankConvergedTighterTolMoreSteps(t *testing.T) {
	g := gen.RMATN(200, 1000, 5, 1, true)
	_, loose, err := PageRankConverged(g, core.Config{MaxSupersteps: 5000}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	_, tight, err := PageRankConverged(g, core.Config{MaxSupersteps: 5000}, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Supersteps <= loose.Supersteps {
		t.Fatalf("tolerance 1e-12 took %d supersteps, loose 1e-3 took %d", tight.Supersteps, loose.Supersteps)
	}
}

func TestReach64AllVersions(t *testing.T) {
	for name, g := range testGraphs() {
		seeds := []graph.VertexID{g.ExternalID(0), g.ExternalID(g.N() / 2), g.ExternalID(g.N() - 1)}
		want := RefReach64(g, seeds)
		for _, cfg := range allVersionsChecked() {
			got, _, err := Reach64(g, cfg, seeds)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.VersionName(), err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: reach[%d] = %b, want %b", name, cfg.VersionName(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestWCCMatchesUnionFind(t *testing.T) {
	for name, g := range testGraphs() {
		want := RefWCC(g)
		for _, cfg := range allVersionsChecked() {
			got, _, err := WCC(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.VersionName(), err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: wcc[%d] = %d, want %d", name, cfg.VersionName(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestWCCDirectedVsHashmin(t *testing.T) {
	// On a directed chain, Hashmin labels only along edge direction while
	// WCC merges the whole chain.
	g := gen.Chain(6, 1).WithInEdges()
	hm, _, err := Hashmin(g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wcc, _, err := WCC(g, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ComponentCount(hm) != 1 {
		// chain 1->2->...: min label 1 flows forward, so Hashmin also
		// reaches one label here; use a reversed star to show divergence.
		t.Logf("hashmin on chain: %v", hm)
	}
	for _, l := range wcc {
		if l != 1 {
			t.Fatalf("WCC labels = %v, want all 1", wcc)
		}
	}
	// reversed star: leaves -> hub; min-label propagation along out-edges
	// cannot label the leaves from each other.
	rs := gen.Star(5, 1).Transpose()
	hm2, _, err := Hashmin(rs, core.Config{Combiner: core.CombinerSpin})
	if err != nil {
		t.Fatal(err)
	}
	if ComponentCount(hm2) == 1 {
		t.Fatal("directed Hashmin should not fully label a reversed star")
	}
	wcc2, _, err := WCC(rs, core.Config{Combiner: core.CombinerSpin})
	if err != nil {
		t.Fatal(err)
	}
	if ComponentCount(wcc2) != 1 {
		t.Fatalf("WCC components = %d, want 1", ComponentCount(wcc2))
	}
}

func TestSymmetrize(t *testing.T) {
	g := gen.Chain(4, 1)
	s := g.Symmetrize(true)
	if s.M() != 6 { // 3 edges doubled
		t.Fatalf("M = %d, want 6", s.M())
	}
	if !s.HasInEdges() {
		t.Fatal("in-edges requested but missing")
	}
	for i := 0; i < s.N(); i++ {
		if s.OutDegree(i) != s.InDegree(i) {
			t.Fatal("symmetrized graph must have equal in/out degrees")
		}
	}
	// Dedup: symmetrizing twice changes nothing.
	ss := s.Symmetrize(false)
	if ss.M() != s.M() {
		t.Fatalf("double symmetrize: %d vs %d", ss.M(), s.M())
	}
}

func TestReach64SeedTruncation(t *testing.T) {
	g := gen.Ring(70, 0).WithInEdges()
	seeds := make([]graph.VertexID, 70)
	for i := range seeds {
		seeds[i] = graph.VertexID(i)
	}
	got, _, err := Reach64(g, core.Config{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	// On a ring every vertex reaches every vertex: all 64 low bits set.
	for i, m := range got {
		if m != ^uint64(0) {
			t.Fatalf("vertex %d mask = %x, want all 64 bits", i, m)
		}
	}
}

func TestApproxDiameter(t *testing.T) {
	cfg := core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}
	// Ring: every source has eccentricity n-1.
	ring := gen.Ring(30, 1).WithInEdges()
	d, err := ApproxDiameter(ring, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 29 {
		t.Fatalf("ring diameter = %d, want 29", d)
	}
	// Grid: sampling the corner (vertex 1) yields rows+cols-2.
	grid := gen.Road(gen.RoadParams{Rows: 7, Cols: 9, Base: 1, BuildInEdges: true})
	d, err = ApproxDiameter(grid, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 7+9-2 {
		t.Fatalf("grid corner eccentricity = %d, want 14", d)
	}
	// More samples never lower the estimate.
	d3, err := ApproxDiameter(grid, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d3 < d {
		t.Fatalf("more samples lowered the bound: %d < %d", d3, d)
	}
	// Empty graph.
	var b graph.Builder
	if d, err := ApproxDiameter(b.MustBuild(), cfg, 3); err != nil || d != 0 {
		t.Fatalf("empty diameter: %d %v", d, err)
	}
}

func TestReach64ChainDirectionality(t *testing.T) {
	g := gen.Chain(10, 0).WithInEdges()
	got, _, err := Reach64(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}, []graph.VertexID{5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := uint64(0)
		if i >= 5 {
			want = 1
		}
		if got[i] != want {
			t.Fatalf("chain reach[%d] = %d, want %d", i, got[i], want)
		}
	}
}
