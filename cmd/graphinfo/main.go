// Command graphinfo prints Table-1/Table-2-style statistics for a graph
// file or generator spec: |V|, |E|, degree summary, density and degree
// distribution — the properties the paper's performance analysis keys on
// (§7.2: ratio of active vertices and graph density).
//
// Usage:
//
//	graphinfo -graph usa
//	graphinfo -file downloads/USA-road-d.USA.gr.gz -hist
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
	"ipregel/internal/memmodel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("graphinfo", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		spec    = fs.String("graph", "", "generator spec (see graphgen)")
		file    = fs.String("file", "", "graph file to inspect")
		divisor = fs.Int("divisor", 0, "scale divisor for presets (default 64)")
		hist    = fs.Bool("hist", false, "print the out-degree histogram (power-of-two buckets)")
		cut     = fs.Int("cut", 0, "print the edge-cut fraction for hash partitioning over N workers")
		diam    = fs.Int("diameter", 0, "estimate the diameter from N sampled sources (drives superstep counts, §7.2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var g *graph.Graph
	var err error
	name := *spec
	switch {
	case *file != "":
		name = *file
		g, err = graphio.ReadFile(*file, graphio.Options{})
	case *spec != "":
		g, err = gen.ByName(*spec, gen.PresetParams{Divisor: *divisor})
	default:
		return fmt.Errorf("need -graph or -file")
	}
	if err != nil {
		return err
	}
	s := graph.ComputeStats(name, g)
	fmt.Fprintln(out, s)
	fmt.Fprintf(out, "base identifier: %d\n", g.Base())
	fmt.Fprintf(out, "binary size: %s (paper §7.4.2 accounting)\n", memmodel.GB(graphio.BinarySizeBytes(g.N(), g.M())))
	fmt.Fprintf(out, "in-memory CSR: %s; degree inequality (Gini): %.3f\n", memmodel.GB(g.MemoryBytes()), graph.GiniOutDegree(g))
	fmt.Fprintf(out, "isolated vertices: %d\n", s.Isolated)
	// Degree skew: how far the tail sits above the bulk — what decides
	// whether a vertex-count split of a scan is balanced (§4).
	p99 := graph.OutDegreeQuantile(g, 0.99)
	p999 := graph.OutDegreeQuantile(g, 0.999)
	hubs := 0
	for i := 0; i < g.N(); i++ {
		if g.OutDegree(i) > p999 {
			hubs++
		}
	}
	fmt.Fprintf(out, "degree skew: max %d, p99 %d, p99.9 %d; %d hub vertices above the p99.9\n",
		s.MaxOutDegree, p99, p999, hubs)
	if *hist {
		fmt.Fprintln(out, "out-degree histogram (bucket k = degrees in [2^(k-1), 2^k)):")
		for k, c := range graph.DegreeHistogram(g) {
			fmt.Fprintf(out, "  %2d: %d\n", k, c)
		}
	}
	if *cut > 1 {
		fmt.Fprintf(out, "edge cut over %d workers: hash %.1f%% (cut edges cross the wire in a distributed deployment)\n",
			*cut, hashCut(g, *cut)*100)
	}
	if *diam > 0 {
		d, err := algorithms.ApproxDiameter(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}, *diam)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "diameter (lower bound, %d samples): %d — expect ≥ this many SSSP supersteps\n", *diam, d)
	}
	return nil
}

// hashCut returns the fraction of edges whose endpoints land on
// different workers under modulo-hash partitioning (Pregel+'s ownerOf).
func hashCut(g *graph.Graph, workers int) float64 {
	if g.M() == 0 {
		return 0
	}
	base, w := uint64(g.Base()), uint64(workers)
	var cut uint64
	g.Edges(func(s, d graph.VertexID) bool {
		if (uint64(s)+base)%w != (uint64(d)+base)%w {
			cut++
		}
		return true
	})
	return float64(cut) / float64(g.M())
}
