package algorithms_test

import (
	"testing"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
)

// BenchmarkContention stresses the push combiners where they differ most:
// a transposed star sends every leaf's message to one hub mailbox, so the
// whole superstep serialises on that mailbox's synchronisation — the
// mutex blocks and the spinlock busy-waits. The broadcast row gathers the
// same messages over the star's in-edges instead (Direction pull): the
// hub's collector folds them alone, with no lock, which is the race-free
// alternative to a lock-free push inbox on this hot slot. Engines
// resolve Threads from GOMAXPROCS, so run it with -cpu 2 or more: at one
// core every combiner builds the same lock-free inbox.
func BenchmarkContention(b *testing.B) {
	g := gen.Star(1<<14, 1).Transpose().WithInEdges() // leaves -> hub
	for _, cfg := range []core.Config{{Combiner: core.CombinerMutex}, {Combiner: core.CombinerSpin}, {Direction: core.DirectionPull}} {
		b.Run(cfg.VersionName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.Hashmin(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
