package algorithms

import (
	"errors"
	"math"
	"testing"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

// testGraphs returns small instances of the three structural shapes the
// paper evaluates on, all with in-edges (so every combiner version runs)
// and base-1 identifiers (so offset mapping's id − base is exercised).
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat": gen.RMATN(200, 1200, 7, 1, true),
		"road": gen.Road(gen.RoadParams{Rows: 12, Cols: 15, Seed: 3, Base: 1, BuildInEdges: true}),
		"ring": gen.Ring(40, 1).WithInEdges(),
		"star": gen.Star(30, 1).WithInEdges(),
	}
}

// pushVersions are the configs valid for any application.
func pushVersions() []core.Config {
	return []core.Config{
		{Combiner: core.CombinerMutex},
		{Combiner: core.CombinerSpin},
		{Direction: core.DirectionPull},
	}
}

// allVersionsChecked returns the six Fig. 7 versions with the bypass audit
// enabled.
func allVersionsChecked() []core.Config {
	vs := core.AllVersions()
	for i := range vs {
		vs[i].CheckInvariants = true
		vs[i].Threads = 3
	}
	return vs
}

func TestPageRankMatchesReferenceAllVersions(t *testing.T) {
	const rounds = 15
	for name, g := range testGraphs() {
		want := RefPageRank(g, rounds)
		for _, cfg := range pushVersions() {
			cfg.Threads = 3
			got, rep, err := PageRank(g, cfg, rounds)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.VersionName(), err)
			}
			if rep.Supersteps != rounds+1 {
				t.Fatalf("%s/%s: supersteps = %d, want %d", name, cfg.VersionName(), rep.Supersteps, rounds+1)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("%s/%s: rank[%d] = %g, want %g", name, cfg.VersionName(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestPageRankRanksSumBounded(t *testing.T) {
	g := gen.RMATN(300, 2000, 9, 1, true)
	got, _, err := PageRank(g, core.Config{Direction: core.DirectionPull}, 20)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range got {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// Sinks leak mass, so the total lies in (0.15, 1].
	if sum <= 0.15 || sum > 1.0+1e-9 {
		t.Fatalf("rank sum = %g out of (0.15, 1]", sum)
	}
}

func TestPageRankRejectsBypass(t *testing.T) {
	g := gen.Ring(10, 1).WithInEdges()
	_, _, err := PageRank(g, core.Config{SelectionBypass: true}, 5)
	if !errors.Is(err, core.ErrBypassViolation) {
		t.Fatalf("PageRank under bypass: want ErrBypassViolation (paper §4 note), got %v", err)
	}
}

func TestHashminMatchesReferenceAllVersions(t *testing.T) {
	for name, g := range testGraphs() {
		want := RefHashmin(g)
		for _, cfg := range allVersionsChecked() {
			got, rep, err := Hashmin(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.VersionName(), err)
			}
			if !rep.Converged {
				t.Fatalf("%s/%s: not converged", name, cfg.VersionName())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: label[%d] = %d, want %d", name, cfg.VersionName(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestHashminComponentsOnDisjointRings(t *testing.T) {
	// Two disjoint 10-rings: labels must be the two minimum identifiers.
	var b graph.Builder
	b.BuildInEdges()
	for i := 0; i < 10; i++ {
		b.AddEdge(graph.VertexID(1+i), graph.VertexID(1+(i+1)%10))
		b.AddEdge(graph.VertexID(11+i), graph.VertexID(11+(i+1)%10))
	}
	g := b.MustBuild()
	labels, _, err := Hashmin(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := ComponentCount(labels); n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	for i := 0; i < 10; i++ {
		if labels[i] != 1 {
			t.Fatalf("ring 1 label = %d, want 1", labels[i])
		}
		if labels[10+i] != 11 {
			t.Fatalf("ring 2 label = %d, want 11", labels[10+i])
		}
	}
}

func TestSSSPMatchesReferenceAllVersions(t *testing.T) {
	for name, g := range testGraphs() {
		source := g.ExternalID(1) // the paper uses vertex '2' on base-1 graphs
		want := RefSSSP(g, source)
		for _, cfg := range allVersionsChecked() {
			got, rep, err := SSSP(g, cfg, source)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.VersionName(), err)
			}
			if !rep.Converged {
				t.Fatalf("%s/%s: not converged", name, cfg.VersionName())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: dist[%d] = %d, want %d", name, cfg.VersionName(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestSSSPUnreachable(t *testing.T) {
	// Chain 1 -> 2 -> 3; from source 2, vertex 1 is unreachable.
	g := gen.Chain(3, 1).WithInEdges()
	got, _, err := SSSP(g, core.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != Infinity {
		t.Fatalf("dist[1] = %d, want Infinity", got[0])
	}
	if got[1] != 0 || got[2] != 1 {
		t.Fatalf("dist = %v", got)
	}
}

func TestSSSPActiveBellShape(t *testing.T) {
	// On a grid the SSSP frontier grows then shrinks — the bell evolution
	// the paper describes (§7.1.4).
	g := gen.Road(gen.RoadParams{Rows: 20, Cols: 20, Base: 1, BuildInEdges: true})
	_, rep, err := SSSP(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Superstep 0 runs every vertex by definition; the bell shape applies
	// to the frontier supersteps that follow.
	ran := rep.RanSeries()
	if len(ran) < 10 {
		t.Fatalf("too few supersteps: %d", len(ran))
	}
	ran = ran[1:]
	var peakIdx int
	var peak int64
	for i, r := range ran {
		if r > peak {
			peak, peakIdx = r, i
		}
	}
	if peakIdx == 0 || peakIdx == len(ran)-1 {
		t.Fatalf("frontier peak at %d of %d — not bell-shaped", peakIdx, len(ran))
	}
	if peak <= ran[0] {
		t.Fatal("frontier never grew")
	}
}

func TestHashminActiveDecreases(t *testing.T) {
	g := gen.RMATN(300, 2400, 5, 1, true)
	_, rep, err := Hashmin(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true})
	if err != nil {
		t.Fatal(err)
	}
	ran := rep.RanSeries()
	if ran[0] != int64(g.N()) {
		t.Fatalf("superstep 0 ran %d, want all %d", ran[0], g.N())
	}
	// Paper §7.1.4: decreasing from all active to none. Allow small local
	// bumps but require the final count to be far below the start.
	if last := ran[len(ran)-1]; last > int64(g.N())/10 {
		t.Fatalf("last superstep ran %d, want near 0", last)
	}
}

func TestBFSMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		source := g.ExternalID(0)
		want := RefBFS(g, source)
		for _, cfg := range allVersionsChecked() {
			got, _, err := BFS(g, cfg, source)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.VersionName(), err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: bfs[%d] = %+v, want %+v", name, cfg.VersionName(), i, got[i], want[i])
				}
			}
		}
	}
}

// TestAddressingModesAgree: offset mapping (§5) is the engine's one
// addressing mode. On a base-1 and a base-0 graph, pushed and pulled SSSP
// must match the reference: the pull collect indexes outboxes by
// in-neighbour the same way the push scatter indexes inboxes.
func TestAddressingModesAgree(t *testing.T) {
	for _, base := range []graph.VertexID{1, 0} {
		g := gen.RMATN(150, 900, 21, base, true)
		want := RefSSSP(g, 2)
		for _, cfg := range []core.Config{
			{Combiner: core.CombinerSpin},
			{Direction: core.DirectionPull},
			{Direction: core.DirectionPull, SelectionBypass: true, CheckInvariants: true},
		} {
			got, _, err := SSSP(g, cfg, 2)
			if err != nil {
				t.Fatalf("base %d %s: %v", base, cfg.VersionName(), err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("base %d %s: dist[%d] = %d, want %d", base, cfg.VersionName(), i, got[i], want[i])
				}
			}
		}
	}
}

// The paper's "in only" vertex internals (§3.2): the pull-combiner
// PageRank runs on a graph whose out-adjacency was stripped (only
// out-degrees remain), the layout behind the 11 GB Twitter result
// (§7.4.3).
func TestPageRankPullOnInOnlyGraph(t *testing.T) {
	full := gen.RMATN(200, 1200, 7, 1, true)
	want := RefPageRank(full, 10)
	stripped, err := full.StripOutAdjacency()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := PageRank(stripped, core.Config{Direction: core.DirectionPull, Threads: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rank[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Bypass needs out-neighbour enrolment, so it must be rejected on
	// this layout.
	_, _, err = SSSP(stripped, core.Config{Direction: core.DirectionPull, SelectionBypass: true}, 2)
	if err == nil {
		t.Fatal("bypass on stripped graph should fail")
	}
	// ...but non-bypass pull SSSP also works in-only.
	gotD, _, err := SSSP(stripped, core.Config{Direction: core.DirectionPull}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantD := RefSSSP(full, 2)
	for i := range wantD {
		if gotD[i] != wantD[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, gotD[i], wantD[i])
		}
	}
}

func TestReferenceSanity(t *testing.T) {
	g := gen.Ring(5, 0).WithInEdges()
	pr := RefPageRank(g, 10)
	for _, r := range pr {
		// A symmetric ring keeps the uniform distribution.
		if math.Abs(r-0.2) > 1e-12 {
			t.Fatalf("ring PageRank = %v, want uniform 0.2", pr)
		}
	}
	if RefPageRank(&graph.Graph{}, 3) != nil {
		t.Fatal("empty-graph PageRank should be nil")
	}
	labels := RefHashmin(g)
	for _, l := range labels {
		if l != 0 {
			t.Fatalf("ring Hashmin = %v, want all 0", labels)
		}
	}
	dist := RefSSSP(g, 2)
	if dist[2] != 0 || dist[3] != 1 || dist[1] != 4 {
		t.Fatalf("ring SSSP = %v", dist)
	}
	if out := RefSSSP(g, 99); out[0] != Infinity {
		t.Fatal("out-of-range source should leave everything unreached")
	}
	if ComponentCount([]uint32{1, 1, 2, 3}) != 3 {
		t.Fatal("ComponentCount wrong")
	}
}
