// Package ipregel's root benchmark suite: one testing.B benchmark per
// table and figure of the paper (run with `go test -bench=. -benchmem`),
// plus the ablation benches DESIGN.md calls out. The cmd/ipregel-bench
// binary runs the same experiments with the paper's repetition protocol
// and richer reporting; these benches are the quick, benchstat-friendly
// form at a reduced scale (divisor 256 ≈ 1/256 of the paper's graphs).
package ipregel

import (
	"fmt"
	"sync"
	"testing"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/memmodel"
	"ipregel/internal/pregelplus"
)

const benchDivisor = 256

// benchPRRounds trades the paper's 30 PageRank iterations for benchmark
// turnaround; per-iteration cost scales linearly so shapes are unchanged.
const benchPRRounds = 10

var (
	graphOnce sync.Once
	benchWiki *graph.Graph
	benchUSA  *graph.Graph
)

func benchGraphs() (wiki, usa *graph.Graph) {
	graphOnce.Do(func() {
		benchWiki = gen.Wikipedia(gen.PresetParams{Divisor: benchDivisor, BuildInEdges: true})
		benchUSA = gen.USARoad(gen.PresetParams{Divisor: benchDivisor, BuildInEdges: true})
	})
	return benchWiki, benchUSA
}

// BenchmarkTable1GraphBuild regenerates Table 1's graphs (the stand-ins'
// construction cost, excluded from the paper's runtimes).
func BenchmarkTable1GraphBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := gen.Wikipedia(gen.PresetParams{Divisor: benchDivisor * 4})
		if g.N() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkFig7 covers the paper's Fig. 7 matrix: application × graph ×
// engine version.
func BenchmarkFig7(b *testing.B) {
	wiki, usa := benchGraphs()
	graphs := map[string]*graph.Graph{"wiki": wiki, "usa": usa}
	for gname, g := range graphs {
		for _, cfg := range core.AllVersions() {
			cfg := cfg
			if !cfg.SelectionBypass { // PageRank admits only non-bypass versions (§4)
				b.Run(fmt.Sprintf("PageRank/%s/%s", gname, cfg.VersionName()), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, _, err := algorithms.PageRank(g, cfg, benchPRRounds); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			b.Run(fmt.Sprintf("Hashmin/%s/%s", gname, cfg.VersionName()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := algorithms.Hashmin(g, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("SSSP/%s/%s", gname, cfg.VersionName()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := algorithms.SSSP(g, cfg, 2); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8 covers the Pregel+ node sweep; the reported ns/op is the
// real work executed (the simulated cluster time is reported as a custom
// metric, sim-ms/op).
func BenchmarkFig8(b *testing.B) {
	wiki, usa := benchGraphs()
	graphs := map[string]*graph.Graph{"wiki": wiki, "usa": usa}
	type runner struct {
		name string
		run  func(g *graph.Graph, cfg pregelplus.ClusterConfig) (pregelplus.Report, error)
	}
	runners := []runner{
		{"PageRank", func(g *graph.Graph, cfg pregelplus.ClusterConfig) (pregelplus.Report, error) {
			_, rep, err := pregelplus.PageRank(g, cfg, benchPRRounds)
			return rep, err
		}},
		{"Hashmin", func(g *graph.Graph, cfg pregelplus.ClusterConfig) (pregelplus.Report, error) {
			_, rep, err := pregelplus.Hashmin(g, cfg)
			return rep, err
		}},
		{"SSSP", func(g *graph.Graph, cfg pregelplus.ClusterConfig) (pregelplus.Report, error) {
			_, rep, err := pregelplus.SSSP(g, cfg, 2)
			return rep, err
		}},
	}
	for gname, g := range graphs {
		for _, r := range runners {
			for _, nodes := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/nodes=%d", r.name, gname, nodes), func(b *testing.B) {
					var sim float64
					for i := 0; i < b.N; i++ {
						rep, err := r.run(g, pregelplus.ClusterConfig{Nodes: nodes, ProcsPerNode: 2})
						if err != nil {
							b.Fatal(err)
						}
						sim += float64(rep.SimTime.Milliseconds())
					}
					b.ReportMetric(sim/float64(b.N), "sim-ms/op")
				})
			}
		}
	}
}

// BenchmarkFig8Reference is Fig. 8's iPregel single-node reference line.
func BenchmarkFig8Reference(b *testing.B) {
	wiki, usa := benchGraphs()
	b.Run("PageRank/wiki/broadcast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := algorithms.PageRank(wiki, core.Config{Direction: core.DirectionPull}, benchPRRounds); err != nil {
				b.Fatal(err)
			}
		}
	})
	best := core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}
	b.Run("SSSP/usa/spinlock+bypass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := algorithms.SSSP(usa, best, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Hashmin/usa/spinlock+bypass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := algorithms.Hashmin(usa, best); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9MemoryFootprint runs the breaking-point experiment's unit
// of work (pull PageRank on a proportional Twitter slice with "in only"
// internals) and reports peak heap bytes as a custom metric.
func BenchmarkFig9MemoryFootprint(b *testing.B) {
	for _, pct := range []int{25, 50, 100} {
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			g := gen.Twitter(gen.PresetParams{Divisor: benchDivisor * 4, BuildInEdges: true}, pct)
			inOnly, err := g.StripOutAdjacency()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var peakSum float64
			for i := 0; i < b.N; i++ {
				peak, _ := memmodel.MeasurePeakHeap(func() {
					if _, _, err := algorithms.PageRank(inOnly, core.Config{Direction: core.DirectionPull}, 3); err != nil {
						b.Fatal(err)
					}
				})
				peakSum += float64(peak)
			}
			b.ReportMetric(peakSum/float64(b.N), "peak-heap-B/op")
		})
	}
}

// BenchmarkContention stresses the push combiners where they differ most:
// a transposed star sends every leaf's message to one hub mailbox, so the
// whole superstep serialises on that mailbox's synchronisation — the
// mutex blocks, the spinlock busy-waits, and the atomic combiner retries
// a CAS (the hot-slot case where lock-free delivery should win).
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

// BenchmarkCombinerBaseline measures what sender-side combining buys the
// Pregel+ baseline (message volume → wire bytes → inbox growth).
func BenchmarkCombinerBaseline(b *testing.B) {
	wiki, _ := benchGraphs()
	for _, disable := range []bool{false, true} {
		name := "with-combiner"
		if disable {
			name = "no-combiner"
		}
		b.Run(name, func(b *testing.B) {
			var wire float64
			for i := 0; i < b.N; i++ {
				_, rep, err := pregelplus.Hashmin(wiki, pregelplus.ClusterConfig{Nodes: 4, ProcsPerNode: 2, DisableCombiner: disable})
				if err != nil {
					b.Fatal(err)
				}
				wire += float64(rep.WireBytes)
			}
			b.ReportMetric(wire/float64(b.N), "wire-B/op")
		})
	}
}

// BenchmarkMailboxDeliver micro-benchmarks the per-message combiner cost
// (§6.1 argues busy-waiting wins on tiny critical sections).
func BenchmarkMailboxDeliver(b *testing.B) {
	g := gen.Ring(1<<16, 0).WithInEdges()
	prog := algorithms.SSSPProgram(0)
	for _, cfg := range []core.Config{{Combiner: core.CombinerMutex}, {Combiner: core.CombinerSpin}, {Combiner: core.CombinerAtomic}, {Direction: core.DirectionPull}} {
		b.Run(cfg.VersionName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Run(g, cfg, prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
