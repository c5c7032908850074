// Weighted shortest paths over a road network with real edge lengths —
// the workload the paper's DIMACS input actually contains (the paper
// simplifies to unit weights, §4 footnote 1). Demonstrates the weighted
// extension end-to-end: generate a weighted road grid, round-trip it
// through a gzip-compressed DIMACS file exactly like the
// USA-road-d.USA.gr.gz download, and run Bellman-Ford-style relaxation
// under both push combiners, checked against Dijkstra.
//
//	go run ./examples/weightedroads [-rows 150] [-cols 150]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("weightedroads", flag.ContinueOnError)
	fs.SetOutput(out)
	rows := fs.Int("rows", 120, "grid rows")
	cols := fs.Int("cols", 120, "grid cols")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := gen.WeightedRoad(gen.RoadParams{Rows: *rows, Cols: *cols, Base: 1, Seed: 11}, 1, 1000)
	fmt.Fprintln(out, graph.ComputeStats("weighted-road", g))

	// Round-trip through the DIMACS .gr.gz format of the paper's download.
	dir, err := os.MkdirTemp("", "ipregel-roads")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "roads.gr.gz")
	if err := graphio.WriteFile(path, g); err != nil {
		return err
	}
	st, _ := os.Stat(path)
	fmt.Fprintf(out, "wrote %s (%d bytes, gzip DIMACS)\n", path, st.Size())
	loaded, err := graphio.ReadFile(path, graphio.Options{KeepWeights: true})
	if err != nil {
		return err
	}
	if !loaded.HasWeights() || loaded.M() != g.M() {
		return errors.New("round-trip lost edges or weights")
	}

	const source = 1
	oracle := algorithms.RefWeightedSSSP(loaded, source)

	for _, cfg := range []core.Config{
		{Combiner: core.CombinerMutex},
		{Combiner: core.CombinerSpin},
		{Combiner: core.CombinerMutex, SelectionBypass: true},
		{Combiner: core.CombinerSpin, SelectionBypass: true},
	} {
		start := time.Now()
		dist, rep, err := algorithms.WeightedSSSP(loaded, cfg, source)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.VersionName(), err)
		}
		for i := range dist {
			if dist[i] != oracle[i] {
				return fmt.Errorf("%s: disagrees with Dijkstra at vertex %d", cfg.VersionName(), i)
			}
		}
		fmt.Fprintf(out, "%-20s %10v  (%d supersteps, %d relaxation messages)\n",
			cfg.VersionName(), time.Since(start).Round(time.Microsecond), rep.Supersteps, rep.TotalMessages)
	}

	// The broadcast (pull) version cannot run this workload: per-edge
	// messages break the broadcast-only contract (§6.2) — the
	// multi-version design makes that a loud error rather than a wrong
	// answer.
	if _, _, err := algorithms.WeightedSSSP(loaded, core.Config{Direction: core.DirectionPull}, source); err != nil {
		fmt.Fprintln(out, "pull transport correctly rejected:", err)
	}
	return nil
}
