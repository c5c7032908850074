package graph

import "testing"

// quantileGraph builds 0→{1..9} (degree 9), 1→2 … 8→9 (degree 1 each),
// vertex 9 a sink: degrees sorted = [0,1,1,1,1,1,1,1,1,9].
func quantileGraph(t *testing.T) *Graph {
	t.Helper()
	var b Builder
	for i := 1; i < 10; i++ {
		b.AddEdge(0, VertexID(i))
	}
	for i := 1; i < 9; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	return b.MustBuild()
}

func TestOutDegreeQuantile(t *testing.T) {
	g := quantileGraph(t)
	cases := []struct {
		q    float64
		want int
	}{
		{0, 0},     // k clamps to 1: the smallest degree
		{0.1, 0},   // ceil(0.1·10) = 1 → degs[0]
		{0.5, 1},   // median
		{0.9, 1},   // ceil(0.9·10) = 9 → degs[8], still below the hub
		{0.95, 9},  // ceil rounds into the top vertex
		{0.999, 9}, // the p99.9 picks the tail
		{1, 9},     // maximum
	}
	for _, tc := range cases {
		if got := OutDegreeQuantile(g, tc.q); got != tc.want {
			t.Fatalf("OutDegreeQuantile(q=%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := OutDegreeQuantile(&Graph{}, 0.5); got != 0 {
		t.Fatalf("empty graph quantile = %d, want 0", got)
	}

	// Uniform degrees: every quantile is that degree (no vertex exceeds
	// the p99.9, so graphinfo counts no hubs).
	ring := func() *Graph {
		var b Builder
		for i := 0; i < 8; i++ {
			b.AddEdge(VertexID(i), VertexID((i+1)%8))
		}
		return b.MustBuild()
	}()
	for _, q := range []float64{0.01, 0.5, 0.999} {
		if got := OutDegreeQuantile(ring, q); got != 1 {
			t.Fatalf("ring OutDegreeQuantile(q=%v) = %d, want 1", q, got)
		}
	}
}
