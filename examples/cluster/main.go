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
	"log"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
	"ipregel/internal/stats"
)

func main() {
	divisor := flag.Int("divisor", 256, "wiki stand-in scale divisor")
	rounds := flag.Int("rounds", 10, "PageRank iterations")
	flag.Parse()

	g := gen.Wikipedia(gen.PresetParams{Divisor: *divisor, BuildInEdges: true})
	fmt.Println(graph.ComputeStats("wiki", g))

	// iPregel reference: the broadcast (pull) version, PageRank's winner.
	start := time.Now()
	ranks, rep, err := algorithms.PageRank(g, core.Config{Direction: core.DirectionPull}, *rounds)
	if err != nil {
		log.Fatal(err)
	}
	ipTime := time.Since(start)
	fmt.Printf("iPregel (broadcast): %v, %d supersteps\n", ipTime.Round(time.Microsecond), rep.Supersteps)

	var nodes []int
	var runtimes []float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		got, prep, err := pregelplus.PageRank(g, pregelplus.ClusterConfig{Nodes: n, ProcsPerNode: 2}, *rounds)
		if err != nil {
			log.Fatal(err)
		}
		for i := range got {
			if diff := got[i] - ranks[i]; diff > 1e-9 || diff < -1e-9 {
				log.Fatalf("frameworks disagree at vertex %d: %g vs %g", i, got[i], ranks[i])
			}
		}
		fmt.Printf("Pregel+ %2d node(s): simulated %v (compute %v, network %v, wire %d bytes)\n",
			n, prep.SimTime.Round(time.Microsecond), prep.ComputeTime.Round(time.Microsecond),
			prep.NetTime.Round(time.Microsecond), prep.WireBytes)
		nodes = append(nodes, n)
		runtimes = append(runtimes, float64(prep.SimTime))
	}

	lead, extrapolated, ok := stats.LeadChange(nodes, runtimes, float64(ipTime), 1<<20)
	switch {
	case ok && !extrapolated:
		fmt.Printf("lead change observed at %d nodes (paper: 11 on Wikipedia PageRank)\n", lead)
	case ok:
		fmt.Printf("lead change extrapolated at %d nodes (paper: 11 on Wikipedia PageRank)\n", lead)
	default:
		fmt.Println("no lead change within 2^20 nodes")
	}
}
