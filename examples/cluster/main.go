// Single node vs cluster: run PageRank on the same graph with iPregel
// (shared memory) and the simulated Pregel+ deployment at growing node
// counts — a miniature of the paper's Fig. 8, including the lead-change
// computation with the constant-efficiency extrapolation rule (§7.3).
//
//	go run ./examples/cluster [-divisor 256] [-rounds 10]
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
	"ipregel/internal/pregelplus"
	"ipregel/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	fs.SetOutput(out)
	divisor := fs.Int("divisor", 256, "wiki stand-in scale divisor")
	rounds := fs.Int("rounds", 10, "PageRank iterations")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := gen.Wikipedia(gen.PresetParams{Divisor: *divisor, BuildInEdges: true})
	fmt.Fprintln(out, graph.ComputeStats("wiki", g))

	// iPregel reference: the broadcast (pull) version, PageRank's winner.
	start := time.Now()
	ranks, rep, err := algorithms.PageRank(g, core.Config{Direction: core.DirectionPull}, *rounds)
	if err != nil {
		return err
	}
	ipTime := time.Since(start)
	fmt.Fprintf(out, "iPregel (broadcast): %v, %d supersteps\n", ipTime.Round(time.Microsecond), rep.Supersteps)

	var nodes []int
	var runtimes []float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		got, prep, err := pregelplus.PageRank(g, pregelplus.ClusterConfig{Nodes: n, ProcsPerNode: 2}, *rounds)
		if err != nil {
			return err
		}
		for i := range got {
			if diff := got[i] - ranks[i]; diff > 1e-9 || diff < -1e-9 {
				return fmt.Errorf("frameworks disagree at vertex %d: %g vs %g", i, got[i], ranks[i])
			}
		}
		fmt.Fprintf(out, "Pregel+ %2d node(s): simulated %v (compute %v, network %v, wire %d bytes)\n",
			n, prep.SimTime.Round(time.Microsecond), prep.ComputeTime.Round(time.Microsecond),
			prep.NetTime.Round(time.Microsecond), prep.WireBytes)
		nodes = append(nodes, n)
		runtimes = append(runtimes, float64(prep.SimTime))
	}

	lead, extrapolated, ok := stats.LeadChange(nodes, runtimes, float64(ipTime), 1<<20)
	switch {
	case ok && !extrapolated:
		fmt.Fprintf(out, "lead change observed at %d nodes (paper: 11 on Wikipedia PageRank)\n", lead)
	case ok:
		fmt.Fprintf(out, "lead change extrapolated at %d nodes (paper: 11 on Wikipedia PageRank)\n", lead)
	default:
		fmt.Fprintln(out, "no lead change within 2^20 nodes")
	}
	return nil
}
