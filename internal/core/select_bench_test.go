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
// mail and a Compute that does nothing and stays active, at one thread.
// The active-N% rows place a given share of the slots active at random
// (seed 1); the clustered row makes clusteredSlots consecutive slots
// active mid-range and no other, a thin frontier as on a road graph. It
// reads ns per slot: the scan's per-slot cost plus one call per active
// vertex.
func BenchmarkSelect(b *testing.B) {
	g := ringGraph(selectSlots, 0)
	prog := Program[uint32, uint32]{
		Compute: func(*Context[uint32, uint32], Vertex[uint32, uint32]) {},
		Combine: Min,
	}
	const clusteredSlots = 300
	type row struct {
		name   string
		active func(rng *rand.Rand, slot int) bool
	}
	var rows []row
	for _, pct := range []int{1, 10, 100} {
		rows = append(rows, row{fmt.Sprintf("active-%d%%", pct), func(rng *rand.Rand, _ int) bool { return rng.Intn(100) < pct }})
	}
	rows = append(rows, row{fmt.Sprintf("clustered-%d", clusteredSlots), func(_ *rand.Rand, slot int) bool {
		return slot >= selectSlots/2 && slot < selectSlots/2+clusteredSlots
	}})
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			e, err := New(g, Config{Threads: 1}, prog)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for slot := 0; slot < selectSlots; slot++ {
				if r.active(rng, slot) {
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
