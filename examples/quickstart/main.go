// Quickstart: build a small graph, write a vertex-centric program with
// the paper's API (compute + combine, Fig. 3–4), and run it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/graph"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// A toy citation graph; identifiers start at 1, like the paper's
	// datasets, so the engine uses offset mapping (§5).
	var b graph.Builder
	b.BuildInEdges() // the pull transport fetches from in-neighbours (§6.2)
	for _, e := range [][2]graph.VertexID{
		{1, 2}, {1, 3}, {2, 3}, {3, 1}, {4, 3}, {5, 3}, {5, 1}, {2, 5},
	} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		return err
	}

	// Run the paper's Fig. 6 PageRank as its broadcast version: pulled,
	// over the lock-free inbox.
	cfg := core.Config{Direction: core.DirectionPull}
	ranks, report, err := algorithms.PageRank(g, cfg, 30)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, report)
	for i, r := range ranks {
		fmt.Fprintf(out, "vertex %d: rank %.4f\n", g.ExternalID(i), r)
	}

	// The same engine runs hand-written programs. Here: every vertex
	// computes the maximum identifier among its in-neighbours, using the
	// Fig. 3/4 calls directly.
	prog := core.Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) {
			if new > *old {
				*old = new
			}
		},
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			if ctx.IsFirstSuperstep() {
				ctx.Broadcast(v, uint32(v.ID()))
			} else {
				var m uint32
				for ctx.NextMessage(v, &m) {
					if m > *v.Value() {
						*v.Value() = m
					}
				}
			}
			ctx.VoteToHalt(v)
		},
	}
	// Hashmin-style programs halt every superstep, so the selection
	// bypass applies (§4).
	e, rep, err := core.Run(g, core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}, prog)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, rep)
	for i, m := range e.ValuesDense() {
		fmt.Fprintf(out, "vertex %d: max in-neighbour %d\n", g.ExternalID(i), m)
	}
	return nil
}
