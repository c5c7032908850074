package core_test

import (
	"math"
	"testing"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
)

// TestPullBitExactAcrossThreads pins the pull clause of the determinism
// contract (DESIGN.md §5.1) on the real PageRank program over a power-law
// graph: each receiver's fold is owner-only and runs in in-neighbour
// order, so a pull run's ValuesDense is bit-identical at 1, 2 and 4
// threads on every inbox version: the plain one of a pull-only engine,
// and each combiner's under adaptive, which pulls every PageRank
// superstep (every vertex broadcasts, so the frontier holds all of |E|).
// A pushed run agrees only to 1e-9.
func TestPullBitExactAcrossThreads(t *testing.T) {
	g := gen.Wikipedia(gen.PresetParams{Divisor: 4096, Seed: 3, BuildInEdges: true})
	var want []float64
	for _, comb := range []core.Combiner{core.CombinerSpin, core.CombinerMutex} {
		for _, dir := range []core.Direction{core.DirectionPull, core.DirectionAdaptive} {
			for _, threads := range []int{1, 2, 4} {
				cfg := core.Config{Combiner: comb, Direction: dir, Threads: threads, CheckInvariants: true}
				e, rep, err := core.Run(g, cfg, algorithms.PageRankProgram(10))
				if err != nil {
					t.Fatalf("%s threads=%d: %v", cfg.VersionName(), threads, err)
				}
				for k, s := range rep.Steps {
					if s.Messages > 0 && s.Direction != core.DirectionPull {
						t.Fatalf("%s threads=%d: superstep %d pushed; the run would not be bit-exact", cfg.VersionName(), threads, k)
					}
				}
				got := e.ValuesDense()
				if want == nil {
					want = got
					continue
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s threads=%d: rank[%d] = %v, want exactly %v (broadcast, one thread)", cfg.VersionName(), threads, i, got[i], want[i])
					}
				}
			}
		}
	}
}
