package algorithms_test

import (
	"fmt"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/graph"
)

// ExampleSSSP runs the paper's Fig. 5 application with its best version
// (spinlock combiner + selection bypass, §7.2) on a small graph.
func ExampleSSSP() {
	var b graph.Builder
	b.BuildInEdges()
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(1, 3)
	b.AddEdge(3, 4)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	dist, report, err := algorithms.SSSP(g, core.Config{
		Combiner:        core.CombinerSpin,
		SelectionBypass: true,
		Threads:         1,
	}, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("supersteps:", report.Supersteps)
	for i, d := range dist {
		fmt.Printf("dist(%d) = %d\n", g.ExternalID(i), d)
	}
	// Output:
	// supersteps: 3
	// dist(1) = 0
	// dist(2) = 1
	// dist(3) = 1
	// dist(4) = 2
}

// ExampleHashmin labels components with the race-free pull combiner.
func ExampleHashmin() {
	var b graph.Builder
	b.BuildInEdges()
	// two directed triangles
	for _, e := range [][2]graph.VertexID{{1, 2}, {2, 3}, {3, 1}, {4, 5}, {5, 6}, {6, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	labels, _, err := algorithms.Hashmin(g, core.Config{Direction: core.DirectionPull, Threads: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("components:", algorithms.ComponentCount(labels))
	fmt.Println("labels:", labels)
	// Output:
	// components: 2
	// labels: [1 1 1 4 4 4]
}
