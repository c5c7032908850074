package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// selectSlots is the vertex count of the gate's RMAT graph (the
// Wikipedia preset at divisor 128).
const selectSlots = 142_726

// BenchmarkSelect is the traditional selection scan (§4) on its own: one
// non-bypass superstep past the first over selectSlots slots with no
// mail, a given share of them active (placed at random, seed 1) and a
// Compute that does nothing and stays active, at one thread. It reads ns
// per slot: the scan's per-slot cost plus one call per active vertex.
func BenchmarkSelect(b *testing.B) {
	g := ringGraph(selectSlots, 0)
	prog := Program[uint32, uint32]{
		Compute: func(*Context[uint32, uint32], Vertex[uint32, uint32]) {},
		Combine: Min,
	}
	for _, pct := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("active-%d%%", pct), func(b *testing.B) {
			e, err := New(g, Config{Threads: 1}, prog)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for slot := 0; slot < selectSlots; slot++ {
				if rng.Intn(100) < pct {
					e.active[slot>>6] |= 1 << (slot & 63)
				}
			}
			e.superstep = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.computePhase()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*selectSlots), "ns/slot")
		})
	}
}
