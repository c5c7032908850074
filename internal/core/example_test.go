package core_test

import (
	"fmt"

	"ipregel/internal/core"
	"ipregel/internal/graph"
)

// ExampleRun implements the paper's Fig. 5 single-source shortest path
// verbatim: a min-combiner, UINT_MAX as the unreached marker, broadcasts
// of dist+1, and a vote to halt every superstep — which is what makes the
// program eligible for the selection bypass.
func ExampleRun() {
	// 1 -> 2 -> 3 -> 4, plus a shortcut 1 -> 3.
	var b graph.Builder
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(1, 3)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}

	const inf = ^uint32(0)
	const source = 1
	prog := core.Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { // ip_combine
			if *old > new {
				*old = new
			}
		},
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) { // IP_compute
			if ctx.IsFirstSuperstep() {
				*v.Value() = inf
			}
			ref := uint32(inf)
			if v.ID() == source {
				ref = 0
			}
			var m uint32
			for ctx.NextMessage(v, &m) {
				if m < ref {
					ref = m
				}
			}
			if ref < *v.Value() {
				*v.Value() = ref
				ctx.Broadcast(v, ref+1)
			}
			ctx.VoteToHalt(v)
		},
	}

	e, rep, err := core.Run(g, core.Config{
		Combiner:        core.CombinerSpin,
		SelectionBypass: true,
		Threads:         1,
	}, prog)
	if err != nil {
		panic(err)
	}
	fmt.Println("version:", rep.Version)
	for i, d := range e.ValuesDense() {
		fmt.Printf("dist(%d) = %d\n", g.ExternalID(i), d)
	}
	// Output:
	// version: spinlock+bypass
	// dist(1) = 0
	// dist(2) = 1
	// dist(3) = 1
	// dist(4) = 2
}

// ExampleAggregator shows a program declaring a global sum, visible one
// superstep later.
func ExampleAggregator() {
	var b graph.Builder
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	prog := core.Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			switch ctx.Superstep() {
			case 0:
				ctx.Aggregate("degrees", float64(v.OutDegree()))
				ctx.Broadcast(v, 1) // keep the computation alive one superstep
			default:
				if v.ID() == 0 {
					fmt.Println("total out-degree:", ctx.Aggregated("degrees"))
				}
				var m uint32
				ctx.NextMessage(v, &m)
				ctx.VoteToHalt(v)
			}
		},
		Aggregators: []core.Aggregator{{Name: "degrees", Op: core.AggSum}},
	}
	if _, _, err := core.Run(g, core.Config{Threads: 1}, prog); err != nil {
		panic(err)
	}
	// Output:
	// total out-degree: 3
}
