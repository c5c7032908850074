package bench

import (
	"fmt"
	"io"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/memmodel"
	"ipregel/internal/pregelplus"
)

func init() {
	register(Experiment{
		ID:    "mem-versions",
		Title: "§7.4.1: measured memory footprint of every iPregel version on both comparison graphs",
		Run:   runMemVersions,
	})
	register(Experiment{
		ID:    "mem-projection",
		Title: "§7.4.3: full-scale memory projections — iPregel vs Pregel+ vs Giraph on Twitter, and Friendster under 16GB",
		Run:   runMemProjection,
	})
}

// runMemVersions reproduces the §7.4.1 measurements: on Wikipedia the
// paper reports mutex versions at 2GB, spinlock at 1.5GB, broadcast at
// 1.5GB growing to 2.5GB with bypass (out-neighbours added on top of
// in-neighbours); USA adds ~10% to everything. The orderings, not the
// absolute numbers, are the reproduction target.
func runMemVersions(o *Options, w io.Writer) error {
	for _, graphName := range []string{"wiki", "usa"} {
		g, err := o.Graph(graphName)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n--- %s graph (Hashmin, engine+graph accounting) ---\n", graphName)
		fmt.Fprintf(w, "%-22s %14s %14s\n", "version", "engine bytes", "with graph")
		app := apps(o)[1] // Hashmin: compatible with all six versions
		for _, cfg := range versionsFor(app) {
			e, err := core.New(g, o.engineConfig(cfg), core.Program[uint32, uint32]{
				Compute: func(*core.Context[uint32, uint32], core.Vertex[uint32, uint32]) {},
				Combine: func(*uint32, uint32) {},
			})
			if err != nil {
				return err
			}
			fp := e.FootprintBytes()
			fmt.Fprintf(w, "%-22s %14d %14s\n", cfg.VersionName(), fp, memmodel.GB(fp+g.MemoryBytes()))
		}
	}
	return nil
}

func runMemProjection(o *Options, w io.Writer) error {
	type row struct {
		framework string
		bytes     uint64
		paper     string
	}
	rows := []row{
		{"iPregel (pull, in-only)", memmodel.IPregelBytes(memmodel.IPregelParams{
			Config: core.Config{Direction: core.DirectionPull},
			V:      gen.TwitterV, E: gen.TwitterE,
			ValueBytes: 8, MessageBytes: 8, InAdjacency: true,
		}), "11.01GB"},
		{"Pregel+ (32 procs)", memmodel.PregelPlusBytes(memmodel.PregelPlusParams{
			V: gen.TwitterV, E: gen.TwitterE,
			MessageBytes: 8, ValueBytes: 8, Workers: 32, Combiner: true,
		}), "109GB"},
		{"Giraph (modelled)", memmodel.GiraphBytes(gen.TwitterV, gen.TwitterE), "264GB"},
	}
	fmt.Fprintln(w, "PageRank on the full Twitter (MPI) graph — analytic projections:")
	fmt.Fprintf(w, "%-26s %12s %12s\n", "framework", "projected", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %12s %12s\n", r.framework, memmodel.GB(r.bytes), r.paper)
	}
	ip := rows[0].bytes
	fmt.Fprintf(w, "ratios: Pregel+/iPregel = %.1fx (paper: 10x), Giraph/iPregel = %.1fx (paper: 25x)\n",
		float64(rows[1].bytes)/float64(ip), float64(rows[2].bytes)/float64(ip))

	fr := memmodel.IPregelBytes(memmodel.IPregelParams{
		Config: core.Config{Direction: core.DirectionPull},
		V:      gen.FriendsterV, E: gen.FriendsterE,
		ValueBytes: 8, MessageBytes: 8, InAdjacency: true,
	})
	fmt.Fprintf(w, "Friendster (%d vertices, %d edges): projected %s under 16GB = %v (paper measures 14.45GB)\n",
		gen.FriendsterV, gen.FriendsterE, memmodel.GB(fr), memmodel.FitsBudget(fr, 16_000_000_000))

	// Measured cross-check at repo scale: run both frameworks on the
	// scaled Twitter stand-in and compare framework overheads.
	div := o.Divisor * 4 // keep this cross-check cheap
	g := gen.Twitter(gen.PresetParams{Divisor: div, BuildInEdges: true}, 100)
	inOnly, err := g.StripOutAdjacency()
	if err != nil {
		return err
	}
	e, err := core.New(inOnly, o.engineConfig(core.Config{Direction: core.DirectionPull}), core.Program[float64, float64]{
		Compute: func(*core.Context[float64, float64], core.Vertex[float64, float64]) {},
		Combine: func(*float64, float64) {},
	})
	if err != nil {
		return err
	}
	cl, err := pregelplus.NewCluster(g, pregelplus.ClusterConfig{Nodes: 16, ProcsPerNode: 2}, pregelplus.PageRankProgram(1), pregelplus.Float64Codec{})
	if err != nil {
		return err
	}
	ipMeasured := e.FootprintBytes() + inOnly.MemoryBytes()
	ppMeasured := cl.MemoryBytes() // data structures only; excludes the per-process environment constant
	fmt.Fprintf(w, "measured at 1/%d scale (data structures, idle): iPregel %s vs Pregel+ %s (%.1fx)\n",
		div, memmodel.GB(ipMeasured), memmodel.GB(ppMeasured), float64(ppMeasured)/float64(ipMeasured))
	return nil
}
