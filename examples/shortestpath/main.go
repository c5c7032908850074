// Shortest paths on a road network — the paper's headline case: on
// low-density, high-diameter graphs the spinlock combiner with selection
// bypass dominates every other version (§7.2 reports a 1,400x spread on
// USA roads).
//
//	go run ./examples/shortestpath [-rows 400] [-cols 400] [-source 2]
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
	fs := flag.NewFlagSet("shortestpath", flag.ContinueOnError)
	fs.SetOutput(out)
	rows := fs.Int("rows", 300, "grid rows")
	cols := fs.Int("cols", 300, "grid cols")
	source := fs.Uint("source", 2, "source vertex identifier")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := gen.Road(gen.RoadParams{Rows: *rows, Cols: *cols, Base: 1, BuildInEdges: true, HighwayFraction: 0.001, Seed: 42})
	fmt.Fprintln(out, graph.ComputeStats("road", g))

	src := graph.VertexID(*source)
	var reference []uint32
	for _, cfg := range core.AllVersions() {
		start := time.Now()
		dist, rep, err := algorithms.SSSP(g, cfg, src)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.VersionName(), err)
		}
		elapsed := time.Since(start)
		if reference == nil {
			reference = dist
		} else {
			for i := range dist {
				if dist[i] != reference[i] {
					return fmt.Errorf("%s disagrees with the first version at vertex %d", cfg.VersionName(), i)
				}
			}
		}
		fmt.Fprintf(out, "%-20s %10v  (%d supersteps, %d messages)\n", cfg.VersionName(), elapsed.Round(time.Microsecond), rep.Supersteps, rep.TotalMessages)
	}

	// The distance profile: a grid's hop distances from a corner follow
	// the Manhattan metric; print a few spot checks.
	dist, _, err := algorithms.SSSP(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}, src)
	if err != nil {
		return err
	}
	reached, far := 0, uint32(0)
	for _, d := range dist {
		if d != algorithms.Infinity {
			reached++
			if d > far {
				far = d
			}
		}
	}
	fmt.Fprintf(out, "reached %d/%d vertices; eccentricity of source: %d hops\n", reached, len(dist), far)
	return nil
}
