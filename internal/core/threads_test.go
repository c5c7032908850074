package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ipregel/internal/graph"
)

// TestThreadsParityTable is the multi-thread parity gate: every
// combination of inbox version, selection mode and direction must
// compute at two and at four threads what it computes on one — where the
// engine builds the plain inbox and every phase runs inline — with the barrier audits (mailbox state, message conservation,
// the enrolment rule, the bypass implication) on throughout, and with the
// same next frontier superstep by superstep (oneVsThreads): under bypass
// a push superstep enrols whichever depositor fills a slot and a pull
// one whichever broadcaster wins its flag, but the enrolled set is the
// thread-independent set of recipients. Min-combining
// integer programs are bit-exact; the float program follows DESIGN.md
// §5.1: bit-exact when every superstep pulled, 1e-9 when any pushed.
// The fan-out graph's identifiers start at 1, so offset mapping's
// id − base runs in every cell, which is named after it. The pull cells
// of every combiner build the one plain inbox of a pull-only engine.
func TestThreadsParityTable(t *testing.T) {
	g := fanoutGraph(1200, 6)
	sameInt := func(a, b uint32) bool { return a == b }
	sameFloat := func(a, b float64) bool { return a-b <= 1e-9 && b-a <= 1e-9 }
	bitExact := func(a, b float64) bool { return a == b }
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin} {
		for _, bypass := range []bool{false, true} {
			for _, dir := range []Direction{DirectionPush, DirectionPull, DirectionAdaptive} {
				cfg := Config{Combiner: comb, SelectionBypass: bypass, Direction: dir}
				t.Run(cellName(cfg)+"/offset", func(t *testing.T) {
					for _, threads := range []int{2, 4} {
						rep := oneVsThreads(t, g, cfg, ssspProg(1), sameInt, threads)
						oneVsThreads(t, g, cfg, minLabelProg(), sameInt, threads)
						if bypass {
							if len(rep.Steps) < 3 || rep.Steps[1].NextFrontier == 0 {
								t.Fatalf("bypass run enrolled nothing after superstep 0, so its frontier parity proves nothing: %+v", rep.Steps)
							}
							continue // rankProg never halts before its last round
						}
						if dir == DirectionPull {
							oneVsThreads(t, g, cfg, rankProg(5), bitExact, threads)
						} else {
							oneVsThreads(t, g, cfg, rankProg(5), sameFloat, threads)
						}
					}
				})
			}
		}
	}
}

// TestCombinePanicAbortsRun pins the failure path of push delivery at
// two threads: a user Combine that panics inside the mailbox's scatter
// loop, under the slot's lock — must come back from Run as the
// contained-panic error with a sealed report, not hang the barrier or
// crash the process. Vertex 1 (the first span's worker) fills vertex
// 2000's mailbox and panics combining into it. In the second-sender case
// vertex 1999, on the other worker, waits for that panic and then sends
// to the same slot: the lock the panic interrupted must have been
// released, or that send waits forever.
func TestCombinePanicAbortsRun(t *testing.T) {
	g := fanoutGraph(2000, 8)
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin} {
		for _, bypass := range []bool{false, true} {
			cfg := Config{Combiner: comb, Threads: 2, SelectionBypass: bypass, CheckInvariants: true}
			t.Run(cfg.VersionName(), func(t *testing.T) {
				for _, second := range []bool{false, true} {
					t.Run(map[bool]string{false: "one-sender", true: "second-sender"}[second], func(t *testing.T) {
						combinePanicRun(t, g, cfg, second)
					})
				}
			})
		}
	}
}

func combinePanicRun(t *testing.T, g *graph.Graph, cfg Config, second bool) {
	exploded := make(chan struct{})
	var once sync.Once
	prog := Program[uint32, uint32]{
		Combine: func(*uint32, uint32) {
			once.Do(func() { close(exploded) })
			panic("combiner exploded")
		},
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.IsFirstSuperstep() {
				switch {
				case v.ID() == 1:
					ctx.Send(2000, 7) // fills the empty mailbox
					ctx.Send(2000, 7) // combines into it: panics
				case v.ID() == 1999 && second:
					<-exploded
					ctx.Send(2000, 7) // takes the slot's lock after the panic
				}
			}
			ctx.VoteToHalt(v)
		},
	}
	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, rep, err := Run(g, cfg, prog)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		if r.err == nil || !strings.Contains(r.err.Error(), "compute panicked at superstep 0") || !strings.Contains(r.err.Error(), "combiner exploded") {
			t.Fatalf("err = %v, want the contained combiner panic", r.err)
		}
		if !r.rep.Aborted || len(r.rep.Steps) != 1 || !r.rep.Steps[0].Partial {
			t.Fatalf("report not sealed around the partial superstep: %+v", r.rep)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return: a sender is waiting on the slot whose Combine panicked")
	}
}

// fanoutGraph builds a strongly connected n-vertex graph (ids 1..n) whose
// deg out-edges per vertex are spread across the whole id range, so every
// worker's span sends into every other worker's span and concurrent
// deliveries to one mailbox are the norm, not the exception.
func fanoutGraph(n, deg int) *graph.Graph { return fanoutGraphSinks(n, deg, nil) }

// fanoutGraphSinks is fanoutGraph without the out-edges of the vertices
// whose internal index sink reports (nil: none).
func fanoutGraphSinks(n, deg int, sink func(i int) bool) *graph.Graph {
	var b graph.Builder
	b.BuildInEdges()
	for i := 0; i < n; i++ {
		for j := 0; j < deg && (sink == nil || !sink(i)); j++ {
			dst := (i + 1 + j*(n/deg+13)) % n
			if dst == i {
				dst = (dst + 1) % n
			}
			b.AddEdge(graph.VertexID(1+i), graph.VertexID(1+dst))
		}
	}
	return b.MustBuild()
}

// minLabelProg floods the minimum vertex id (hashmin/WCC on a connected
// graph): every superstep each improved vertex broadcasts, so message
// volume stays high — and the uint32 min-combine is order-independent,
// making results exactly comparable across delivery schedules.
func minLabelProg() Program[uint32, uint32] {
	return Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) {
			if new < *old {
				*old = new
			}
		},
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.IsFirstSuperstep() {
				*v.Value() = uint32(v.ID())
				ctx.Broadcast(v, *v.Value())
				ctx.VoteToHalt(v)
				return
			}
			best := *v.Value()
			var m uint32
			for ctx.NextMessage(v, &m) {
				if m < best {
					best = m
				}
			}
			if best < *v.Value() {
				*v.Value() = best
				ctx.Broadcast(v, best)
			}
			ctx.VoteToHalt(v)
		},
	}
}

// rankProg is a PageRank-shaped float program: every vertex broadcasts
// every superstep for a fixed round count. Float addition is not
// associative, so cross-thread comparison uses a tolerance.
func rankProg(rounds int) Program[float64, float64] {
	return Program[float64, float64]{
		Combine: func(old *float64, new float64) { *old += new },
		Compute: func(ctx *Context[float64, float64], v Vertex[float64, float64]) {
			if ctx.IsFirstSuperstep() {
				*v.Value() = 1
			} else {
				var sum, m float64
				for ctx.NextMessage(v, &m) {
					sum += m
				}
				*v.Value() = 0.15 + 0.85*sum
			}
			if ctx.Superstep() < rounds {
				if d := v.OutDegree(); d > 0 {
					ctx.Broadcast(v, *v.Value()/float64(d))
				}
			} else {
				ctx.VoteToHalt(v)
			}
		},
	}
}
