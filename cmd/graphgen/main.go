// Command graphgen writes synthetic graphs to disk in any supported
// format, so experiments can be replayed from files exactly as the paper
// replays the KONECT/DIMACS downloads.
//
// Usage:
//
//	graphgen -spec wiki -divisor 64 -o wiki.bin
//	graphgen -spec road:600:600 -o usa.gr.gz
//	graphgen -spec rmat:18:16 -seed 7 -o big.tsv
//	graphgen -spec wroad:200:200 -o roads.gr      (weighted road grid)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	specs := strings.Join(append(gen.Names(), "wroad:<rows>:<cols>"), " | ")
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		spec     = fs.String("spec", "", "graph spec ("+specs+")")
		divisor  = fs.Int("divisor", 0, "scale divisor for preset graphs (default 64)")
		seed     = fs.Int64("seed", 0, "generator seed (0 = preset default)")
		outPath  = fs.String("o", "", "output path; format chosen by extension (.gr .tsv .bin, optionally .gz, else edge list)")
		compress = fs.Bool("compress", false, "block-compress the adjacency before writing (with a .bin output this emits the IPG3 variant, loadable via mmap)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" || *outPath == "" {
		return fmt.Errorf("-spec and -o are required; specs: %s", specs)
	}
	start := time.Now()
	g, err := buildGraph(*spec, *divisor, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, graph.ComputeStats(*spec, g), "generated in", time.Since(start).Round(time.Millisecond))
	if *compress {
		if g, err = g.Compress(); err != nil {
			return err
		}
	}
	if err := graphio.WriteFile(*outPath, g); err != nil {
		return err
	}
	st, err := os.Stat(*outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d bytes, %s format)\n", *outPath, st.Size(), graphio.DetectFormat(*outPath))
	return nil
}

func buildGraph(spec string, divisor int, seed int64) (*graph.Graph, error) {
	var r, c int
	if n, _ := fmt.Sscanf(spec, "wroad:%d:%d", &r, &c); n == 2 {
		if err := gen.CheckSpec(spec, gen.PresetParams{}); err != nil {
			return nil, err
		}
		if seed == 0 {
			seed = 1
		}
		return gen.WeightedRoad(gen.RoadParams{Rows: r, Cols: c, Base: 1, Seed: seed}, 1, 1000), nil
	}
	return gen.ByName(spec, gen.PresetParams{Divisor: divisor, Seed: seed})
}
