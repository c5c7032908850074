package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ipregel/internal/graph"
)

// benchDests is one superstep's worth of destinations cut into neighbour
// lists of benchDegree, sequential (a road grid's locality) or uniformly
// random (a power-law graph's scattered writes).
const (
	benchSlots  = 1 << 18
	benchMsgs   = 1 << 16
	benchDegree = 16
)

func benchDests(random bool) [][]graph.VertexID {
	rng := rand.New(rand.NewSource(1))
	lists := make([][]graph.VertexID, benchMsgs/benchDegree)
	for i := range lists {
		lists[i] = make([]graph.VertexID, benchDegree)
		for j := range lists[i] {
			if random {
				lists[i][j] = graph.VertexID(rng.Intn(benchSlots))
			} else {
				lists[i][j] = graph.VertexID((i*benchDegree + j) % benchSlots)
			}
		}
	}
	return lists
}

// BenchmarkDeliver is the mailbox-deliver microbenchmark of ROADMAP's
// "layer by layer" aim: ns per message into each inbox version, as a
// scatter of one per message (what a Send pays) against the fused
// per-list scatter (what a broadcast pays).
// One goroutine, so the lock-based and atomic cells read the uncontended
// cost of their protection; plain is what any combiner gets at
// Threads == 1. Each pass ends with the barrier swap, so fills and
// combines both occur.
func BenchmarkDeliver(b *testing.B) {
	sum := func(old *float64, new float64) { *old += new }
	versions := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Combiner: CombinerSpin, Threads: 1}},
		{"spin", Config{Combiner: CombinerSpin, Threads: 2}},
		{"mutex", Config{Combiner: CombinerMutex, Threads: 2}},
		{"atomic", Config{Combiner: CombinerAtomic, Threads: 2}},
	}
	for _, random := range []bool{false, true} {
		lists := benchDests(random)
		order := map[bool]string{false: "seq", true: "random"}[random]
		for _, v := range versions {
			for _, fused := range []bool{false, true} {
				path := map[bool]string{false: "send", true: "scatter"}[fused]
				b.Run(fmt.Sprintf("%s/%s/%s", v.name, path, order), func(b *testing.B) {
					mb, err := newMailbox[float64](v.cfg, benchSlots, sum)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for _, nbs := range lists {
							if fused {
								mb.scatter(nbs, 0, 1)
								continue
							}
							for i := range nbs {
								mb.scatter(nbs[i:i+1], 0, 1)
							}
						}
						mb.swap(nil, true)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchMsgs), "ns/msg")
				})
			}
		}
	}
}

// BenchmarkEnrol is the frontier-enrol microbenchmark: ns per recipient
// for Context.enrol's dedup-and-append, with the barrier's gather and
// frontier swap (which resets the dedup flags) closing each pass. The
// random cells enrol most slots once; the sequential ones revisit nothing.
func BenchmarkEnrol(b *testing.B) {
	var gb graph.Builder
	for i := 0; i < benchSlots; i++ {
		gb.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%benchSlots))
	}
	g := gb.MustBuild()
	for _, random := range []bool{false, true} {
		lists := benchDests(random)
		b.Run(map[bool]string{false: "seq", true: "random"}[random], func(b *testing.B) {
			e, err := New(g, Config{SelectionBypass: true, Threads: 1}, haltingFlood(1))
			if err != nil {
				b.Fatal(err)
			}
			ctx := e.workers[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, nbs := range lists {
					ctx.enrol(nbs, 0)
				}
				e.gatherFrontier()
				e.swapFrontiers()
				ctx.resetSuperstep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchMsgs), "ns/msg")
		})
	}
}
