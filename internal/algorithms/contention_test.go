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
// mutex blocks, the spinlock busy-waits, and the atomic combiner retries
// a CAS (the hot-slot case where lock-free delivery should win). Engines
// resolve Threads from GOMAXPROCS, so run it with -cpu 2 or more: at one
// core every combiner builds the same lock-free inbox.
func BenchmarkContention(b *testing.B) {
	g := gen.Star(1<<14, 1).Transpose() // leaves -> hub
	for _, comb := range []core.Combiner{core.CombinerMutex, core.CombinerSpin, core.CombinerAtomic} {
		cfg := core.Config{Combiner: comb}
		b.Run(cfg.VersionName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.Hashmin(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
