package pregelplus_test

import (
	"math"
	"testing"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	. "ipregel/internal/pregelplus"
)

// The cross-framework tests compare the baseline with internal/algorithms,
// which imports this package, so they live in the external test package.

func clusterConfigs() []ClusterConfig {
	return []ClusterConfig{
		{Nodes: 1, ProcsPerNode: 2},
		{Nodes: 4, ProcsPerNode: 2},
		{Nodes: 16, ProcsPerNode: 2},
	}
}

func TestPageRankMatchesReferenceAcrossNodeCounts(t *testing.T) {
	g := gen.RMATN(150, 900, 13, 1, false)
	want := algorithms.RefPageRank(g, 10)
	for _, cfg := range clusterConfigs() {
		got, rep, err := PageRank(g, cfg, 10)
		if err != nil {
			t.Fatalf("nodes=%d: %v", cfg.Nodes, err)
		}
		if !rep.Converged || rep.Supersteps != 11 {
			t.Fatalf("nodes=%d: supersteps=%d converged=%v", cfg.Nodes, rep.Supersteps, rep.Converged)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("nodes=%d: rank[%d]=%g want %g", cfg.Nodes, i, got[i], want[i])
			}
		}
	}
}

func TestHashminAndSSSPMatchIPregel(t *testing.T) {
	g := gen.Road(gen.RoadParams{Rows: 10, Cols: 12, Seed: 2, Base: 1, BuildInEdges: true})
	wantLabels, _, err := algorithms.Hashmin(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true})
	if err != nil {
		t.Fatal(err)
	}
	wantDist, _, err := algorithms.SSSP(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range clusterConfigs() {
		gotLabels, _, err := Hashmin(g, cfg)
		if err != nil {
			t.Fatalf("hashmin nodes=%d: %v", cfg.Nodes, err)
		}
		gotDist, _, err := SSSP(g, cfg, 2)
		if err != nil {
			t.Fatalf("sssp nodes=%d: %v", cfg.Nodes, err)
		}
		for i := range wantLabels {
			if gotLabels[i] != wantLabels[i] {
				t.Fatalf("nodes=%d: label[%d]=%d want %d", cfg.Nodes, i, gotLabels[i], wantLabels[i])
			}
			if gotDist[i] != wantDist[i] {
				t.Fatalf("nodes=%d: dist[%d]=%d want %d", cfg.Nodes, i, gotDist[i], wantDist[i])
			}
		}
	}
}
