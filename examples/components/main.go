// Connected components with Hashmin on a power-law graph, across all six
// engine versions — the paper's Fig. 7 middle row in miniature, plus a
// per-superstep view of the "decreasing from all active to none"
// evolution (§7.1.4).
//
//	go run ./examples/components [-scale 14] [-edgefactor 8]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("components", flag.ContinueOnError)
	fs.SetOutput(out)
	scale := fs.Int("scale", 13, "RMAT scale (|V| = 2^scale)")
	ef := fs.Int("edgefactor", 8, "average out-degree")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := gen.DefaultRMAT(*scale, *ef, 7)
	p.BuildInEdges = true
	g := gen.RMAT(p)
	fmt.Fprintln(out, graph.ComputeStats("rmat", g))

	var labels []uint32
	for _, cfg := range core.AllVersions() {
		start := time.Now()
		got, rep, err := algorithms.Hashmin(g, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.VersionName(), err)
		}
		if labels == nil {
			labels = got
		}
		fmt.Fprintf(out, "%-20s %10v  (%d supersteps)\n", cfg.VersionName(), time.Since(start).Round(time.Microsecond), rep.Supersteps)
	}
	fmt.Fprintf(out, "components (by out-edge min-propagation): %d\n", algorithms.ComponentCount(labels))

	// Show the active-vertex evolution on the best version.
	_, rep, err := algorithms.Hashmin(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "vertices run per superstep (decreasing, as §7.1.4 describes):")
	for s, ran := range rep.RanSeries() {
		fmt.Fprintf(out, "  superstep %2d: %d\n", s, ran)
	}
	return nil
}
