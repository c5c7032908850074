package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func weightedTiny(t *testing.T, inEdges bool) *Graph {
	t.Helper()
	var wb WeightedBuilder
	if inEdges {
		wb.BuildInEdges()
	}
	wb.AddEdge(1, 2, 10)
	wb.AddEdge(1, 3, 20)
	wb.AddEdge(2, 3, 5)
	wb.AddEdge(3, 4, 7)
	g, err := wb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWeightedBuilderBasics(t *testing.T) {
	g := weightedTiny(t, false)
	if !g.HasWeights() {
		t.Fatal("weights missing")
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	adj, ws := g.OutEdgesWeighted(0)
	if len(adj) != 2 || len(ws) != 2 {
		t.Fatalf("vertex 1 edges: %v %v", adj, ws)
	}
	// Weight of edge to internal 1 (external 2) is 10, to internal 2 is 20.
	for j, nb := range adj {
		switch nb {
		case 1:
			if ws[j] != 10 {
				t.Fatalf("w(1->2) = %d, want 10", ws[j])
			}
		case 2:
			if ws[j] != 20 {
				t.Fatalf("w(1->3) = %d, want 20", ws[j])
			}
		default:
			t.Fatalf("unexpected neighbour %d", nb)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedBuilderInEdges(t *testing.T) {
	g := weightedTiny(t, true)
	if !g.HasInEdges() {
		t.Fatal("in-edges missing")
	}
	if g.InDegree(2) != 2 {
		t.Fatalf("InDegree = %d, want 2", g.InDegree(2))
	}
}

func TestUnweightedAccessPanics(t *testing.T) {
	g := tiny(t, nil)
	if g.HasWeights() {
		t.Fatal("unweighted graph claims weights")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OutEdgesWeighted should panic on unweighted graph")
		}
	}()
	g.OutEdgesWeighted(0)
}

func TestWeightedTransposeCarriesWeights(t *testing.T) {
	g := weightedTiny(t, false)
	tr := g.Transpose()
	if !tr.HasWeights() {
		t.Fatal("transpose dropped weights")
	}
	// Edge 1->2 (w=10) becomes 2->1 in the transpose.
	adj, ws := tr.OutEdgesWeighted(1) // external 2
	found := false
	for j, nb := range adj {
		if nb == 0 && ws[j] == 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("transpose missing weighted edge: %v %v", adj, ws)
	}
	if tr.M() != g.M() {
		t.Fatal("transpose changed edge count")
	}
}

// Property: the multiset of (src, dst, w) triples survives transposition
// with src/dst swapped.
func TestWeightedTransposeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw % 120)
		rng := rand.New(rand.NewSource(seed))
		var wb WeightedBuilder
		wb.ForceN(n)
		wb.SetBase(0)
		for i := 0; i < m; i++ {
			wb.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), uint32(rng.Intn(100)))
		}
		g, err := wb.Build()
		if err != nil {
			return false
		}
		tr := g.Transpose()
		orig := map[[3]uint64]int{}
		for u := 0; u < n; u++ {
			adj, ws := g.OutEdgesWeighted(u)
			for j := range adj {
				orig[[3]uint64{uint64(u), uint64(adj[j]), uint64(ws[j])}]++
			}
		}
		for u := 0; u < n; u++ {
			adj, ws := tr.OutEdgesWeighted(u)
			for j := range adj {
				key := [3]uint64{uint64(adj[j]), uint64(u), uint64(ws[j])}
				orig[key]--
				if orig[key] < 0 {
					return false
				}
			}
		}
		for _, c := range orig {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedBuilderRejectsModes(t *testing.T) {
	var wb WeightedBuilder
	wb.b.Undirected()
	wb.AddEdge(0, 1, 1)
	if _, err := wb.Build(); err == nil {
		t.Fatal("undirected weighted build accepted")
	}
}

func TestWeightedBuilderBaseViolation(t *testing.T) {
	var wb WeightedBuilder
	wb.SetBase(5)
	wb.AddEdge(1, 6, 1)
	if _, err := wb.Build(); err == nil {
		t.Fatal("identifier below base accepted")
	}
}

func TestWeightedBuilderForceNTooSmall(t *testing.T) {
	var wb WeightedBuilder
	wb.ForceN(2)
	wb.AddEdge(0, 5, 1)
	if _, err := wb.Build(); err == nil {
		t.Fatal("ForceN smaller than span accepted")
	}
}

func TestWeightedMemoryBytes(t *testing.T) {
	g := weightedTiny(t, false)
	want := uint64(5*4 + 4*4 + 4*4) // offsets + adj + weights
	if got := g.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}
