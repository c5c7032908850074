package algorithms

import (
	"math"
	"testing"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

// Cross-thread parity for the lock-based push combiners: PageRank, SSSP
// and WCC must produce the same results under either lock, at two, three
// and four threads, as under the mutex combiner at four.

func pushParityConfigs() []core.Config {
	return []core.Config{
		{Combiner: core.CombinerSpin, Threads: 2},
		{Combiner: core.CombinerSpin, Threads: 3},
		{Combiner: core.CombinerSpin, Threads: 4},
		{Combiner: core.CombinerMutex, Threads: 3},
		{Combiner: core.CombinerMutex, Threads: 2},
	}
}

func parityGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat": gen.RMATN(400, 2600, 11, 1, true), // power-law: hot hubs
		"road": gen.Road(gen.RoadParams{Rows: 12, Cols: 14, Seed: 5, Base: 1, BuildInEdges: true}),
	}
}

func TestPushCombinerPageRankParity(t *testing.T) {
	for gname, g := range parityGraphs() {
		want, _, err := PageRank(g, core.Config{Combiner: core.CombinerMutex, Threads: 4}, 15)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range pushParityConfigs() {
			got, _, err := PageRank(g, cfg, 15)
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, cfg.VersionName(), err)
			}
			for i := range want {
				// rank sums are float64: delivery order differs between
				// combiners, so compare within rounding slack rather than
				// bit-for-bit
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("%s/%s: rank[%d] = %v, want %v", gname, cfg.VersionName(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestPushCombinerSSSPParity(t *testing.T) {
	for gname, g := range parityGraphs() {
		want, _, err := SSSP(g, core.Config{Combiner: core.CombinerMutex, Threads: 4}, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range pushParityConfigs() {
			for _, bypass := range []bool{false, true} {
				cfg := cfg
				cfg.SelectionBypass = bypass
				cfg.CheckInvariants = true
				got, _, err := SSSP(g, cfg, 2)
				if err != nil {
					t.Fatalf("%s/%s: %v", gname, cfg.VersionName(), err)
				}
				for i := range want {
					if got[i] != want[i] { // min combine: exact
						t.Fatalf("%s/%s: dist[%d] = %d, want %d", gname, cfg.VersionName(), i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestPushCombinerWCCParity(t *testing.T) {
	for gname, g := range parityGraphs() {
		want, _, err := WCC(g, core.Config{Combiner: core.CombinerMutex, Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		oracle := RefWCC(g.Symmetrize(false))
		for _, cfg := range pushParityConfigs() {
			got, _, err := WCC(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", gname, cfg.VersionName(), err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: label[%d] = %d, want %d", gname, cfg.VersionName(), i, got[i], want[i])
				}
				if got[i] != oracle[i] {
					t.Fatalf("%s/%s: label[%d] = %d, union-find oracle %d", gname, cfg.VersionName(), i, got[i], oracle[i])
				}
			}
		}
	}
}
