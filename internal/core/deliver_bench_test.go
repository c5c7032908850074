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

// benchInboxes builds each inbox version: a one-thread engine gets the
// plain inbox whatever the combiner, two threads the configured one.
// Every version combines with a func literal, which the inbox calls per
// delivery; plain-inline is the plain inbox given the paper's combiner,
// which it folds in the loop instead.
var benchInboxes = []struct {
	name   string
	cfg    Config
	inline bool
}{
	{"plain", Config{Combiner: CombinerSpin, Threads: 1}, false},
	{"plain-inline", Config{Combiner: CombinerSpin, Threads: 1}, true},
	{"spin", Config{Combiner: CombinerSpin, Threads: 2}, false},
	{"mutex", Config{Combiner: CombinerMutex, Threads: 2}, false},
}

// BenchmarkDeliver is the mailbox-deliver microbenchmark of ROADMAP's
// "layer by layer" aim: ns per message into each inbox version, as a
// scatter of one per message (send: what a Send pays), the fused
// per-list scatter (scatter: what a broadcast pays), and that scatter
// under selection bypass (bypass: its fills also enrol into a worker
// buffer — the whole cost of a bypass broadcast's frontier enrolment).
// One goroutine, so the lock-based cells read the uncontended
// cost of their protection; plain is what any combiner gets at
// Threads == 1. The messages are a float64 sum, except plain-inline's
// min and bypass cells: the plain inbox folds Sum only without bypass
// (PageRank) and Min in both modes (Hashmin, SSSP, BFS), so those cells
// deliver uint32 messages to Min (min is the fused scatter without
// bypass, the one-thread service's). Each pass ends with the barrier
// swap — the full clear, or under bypass the clear of the slots the previous pass
// enrolled, full again when that list reached its cap (a dense frontier)
// — so fills and combines both occur.
func BenchmarkDeliver(b *testing.B) {
	sum := func(old *float64, new float64) { *old += new }
	for _, random := range []bool{false, true} {
		lists := benchDests(random)
		order := map[bool]string{false: "seq", true: "random"}[random]
		for _, v := range benchInboxes {
			for _, path := range []string{"send", "scatter", "min", "bypass"} {
				if path == "min" && !v.inline {
					continue
				}
				b.Run(fmt.Sprintf("%s/%s/%s", v.name, path, order), func(b *testing.B) {
					cfg := v.cfg
					cfg.SelectionBypass = path == "bypass"
					switch {
					case !v.inline:
						benchDeliver(b, cfg, sum, lists, path)
					case path == "min" || cfg.SelectionBypass:
						benchDeliver(b, cfg, Min, lists, path)
					default:
						benchDeliver(b, cfg, Sum, lists, path)
					}
				})
			}
		}
	}
}

// benchDeliver is one BenchmarkDeliver cell: every list delivered along
// path into an inbox built for cfg and combine, message 1.
func benchDeliver[M uint32 | float64](b *testing.B, cfg Config, combine CombineFunc[M], lists [][]graph.VertexID, path string) {
	mb, buf, err := newMailbox[M](cfg, benchSlots, combine)
	if err != nil {
		b.Fatal(err)
	}
	var ran, enrolled []int32
	dense := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, nbs := range lists {
			if path != "send" {
				enrolled = mb.scatter(nbs, 1, enrolled)
				continue
			}
			for i := range nbs {
				mb.scatter(nbs[i:i+1], 1, nil)
			}
		}
		if cfg.SelectionBypass {
			buf.swap(ran, dense)
			ran, enrolled = enrolled, ran[:0]
			dense = len(ran) == listCap(benchSlots)
		} else {
			buf.swap(nil, true)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchMsgs), "ns/msg")
}

// BenchmarkCollect is the pull side of BenchmarkDeliver: ns per in-edge
// of the collect phase's scan (collectScan) into each inbox version.
// Receiver i's in-neighbours are benchDests' list i. In the full rows
// every sender broadcast, so the fold reads no flag and each receiver
// folds benchDegree outbox entries and fills its inbox once — a PageRank
// pull superstep. In the partial rows every other sender broadcast, so
// the fold tests each in-neighbour's flag and folds about half of them.
// plain-inline combines with Sum, which the fold adds in place; the other
// versions call a literal. The engines are adaptive, since a pull-only
// one builds the plain inbox whatever the combiner. One goroutine; each
// pass ends with the barrier's full swap.
func BenchmarkCollect(b *testing.B) {
	called := Program[float64, float64]{
		Compute: func(*Context[float64, float64], Vertex[float64, float64]) {},
		Combine: func(old *float64, new float64) { *old += new },
	}
	inline := called
	inline.Combine = Sum
	for _, random := range []bool{false, true} {
		var gb graph.Builder
		gb.BuildInEdges().SetBase(0)
		lists := benchDests(random)
		for dst, srcs := range lists {
			for _, src := range srcs {
				gb.AddEdge(src, graph.VertexID(dst))
			}
		}
		g := gb.MustBuild()
		order := map[bool]string{false: "seq", true: "random"}[random]
		for _, v := range benchInboxes {
			for _, every := range []bool{true, false} {
				rows := map[bool]string{true: "full", false: "partial"}[every]
				b.Run(v.name+"/"+order+"/"+rows, func(b *testing.B) {
					cfg := v.cfg
					cfg.Direction = DirectionAdaptive
					prog := called
					if v.inline {
						prog = inline
					}
					e, err := New(g, cfg, prog)
					if err != nil {
						b.Fatal(err)
					}
					for i := range e.pullFlag {
						if every || i%2 == 0 {
							e.pullOut[i], e.pullFlag[i] = 1, 1
						}
					}
					ctx := e.workers[0]
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						e.collectScan(ctx, 0, len(lists), every)
						e.buf.swap(nil, true)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchMsgs), "ns/edge")
				})
			}
		}
	}
}
