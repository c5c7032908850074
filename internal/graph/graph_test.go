package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny builds the 4-vertex graph used across these tests:
//
//	1 -> 2, 1 -> 3, 2 -> 3, 3 -> 4, 4 -> 1
//
// with external identifiers starting at 1 (like the paper's graphs).
func tiny(t *testing.T, opts func(*Builder)) *Graph {
	t.Helper()
	var b Builder
	if opts != nil {
		opts(&b)
	}
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := tiny(t, nil)
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 5 {
		t.Fatalf("M = %d, want 5", g.M())
	}
	if g.Base() != 1 {
		t.Fatalf("Base = %d, want 1", g.Base())
	}
	if got := g.OutDegree(0); got != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", got)
	}
	// External id of internal index 3 is 4.
	if got := g.ExternalID(3); got != 4 {
		t.Fatalf("ExternalID(3) = %d, want 4", got)
	}
	wantAdj := map[int][]VertexID{0: {1, 2}, 1: {2}, 2: {3}, 3: {0}}
	for i, want := range wantAdj {
		got := g.OutNeighbors(i)
		if len(got) != len(want) {
			t.Fatalf("OutNeighbors(%d) = %v, want %v", i, got, want)
		}
		seen := map[VertexID]bool{}
		for _, v := range got {
			seen[v] = true
		}
		for _, v := range want {
			if !seen[v] {
				t.Fatalf("OutNeighbors(%d) = %v missing %d", i, got, v)
			}
		}
	}
}

func TestBuilderInEdges(t *testing.T) {
	g := tiny(t, func(b *Builder) { b.BuildInEdges() })
	if !g.HasInEdges() {
		t.Fatal("expected in-edges")
	}
	if got := g.InDegree(2); got != 2 { // vertex 3 has in-edges from 1 and 2
		t.Fatalf("InDegree(2) = %d, want 2", got)
	}
	if got := g.InNeighbors(0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("InNeighbors(0) = %v, want [3]", got)
	}
}

func TestBuilderNoInEdgesPanics(t *testing.T) {
	g := tiny(t, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("InNeighbors on out-only graph should panic")
		}
	}()
	_ = g.InNeighbors(0)
}

func TestBuilderUndirected(t *testing.T) {
	var b Builder
	b.Undirected()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4", g.M())
	}
	if g.OutDegree(1) != 2 {
		t.Fatalf("OutDegree(1) = %d, want 2", g.OutDegree(1))
	}
}

func TestBuilderForceN(t *testing.T) {
	var b Builder
	b.ForceN = 10
	b.SetBase(0)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if g.N() != 10 {
		t.Fatalf("N = %d, want 10", g.N())
	}
	if g.OutDegree(9) != 0 {
		t.Fatal("vertex 9 should be isolated")
	}
}

func TestBuilderForceNTooSmall(t *testing.T) {
	var b Builder
	b.ForceN = 2
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error: edges span more vertices than ForceN")
	}
}

func TestBuilderBaseViolation(t *testing.T) {
	var b Builder
	b.SetBase(10)
	b.AddEdge(3, 12)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error: identifier below base")
	}
}

func TestBuilderDedup(t *testing.T) {
	var b Builder
	b.Dedup()
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 after dedup", g.M())
	}
	adj := g.OutNeighbors(0)
	if len(adj) != 2 || adj[0] != 1 || adj[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v, want [1 2]", adj)
	}
}

func TestEmptyGraph(t *testing.T) {
	var b Builder
	g := b.MustBuild()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph N=%d M=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSelfLoop(t *testing.T) {
	var b Builder
	b.AddEdge(0, 0)
	g := b.MustBuild()
	if g.N() != 1 || g.M() != 1 {
		t.Fatalf("N=%d M=%d, want 1,1", g.N(), g.M())
	}
	if g.OutNeighbors(0)[0] != 0 {
		t.Fatal("self loop lost")
	}
}

func TestTransposeTiny(t *testing.T) {
	g := tiny(t, nil)
	tr := g.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose Validate: %v", err)
	}
	if tr.M() != g.M() {
		t.Fatalf("transpose M = %d, want %d", tr.M(), g.M())
	}
	// edge 1->2 in g means 2->1 in tr (internal 0->1 becomes 1->0).
	found := false
	for _, v := range tr.OutNeighbors(1) {
		if v == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("transpose missing reversed edge")
	}
}

func edgeMultiset(g *Graph) map[[2]VertexID]int {
	m := map[[2]VertexID]int{}
	g.Edges(func(s, d VertexID) bool {
		m[[2]VertexID{s, d}]++
		return true
	})
	return m
}

// Property: transposing twice restores the edge multiset.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%50) + 1
		m := int(mRaw % 400)
		rng := rand.New(rand.NewSource(seed))
		var b Builder
		b.ForceN = n
		b.SetBase(0)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		tt := g.Transpose().Transpose()
		if tt.Validate() != nil {
			return false
		}
		a, bms := edgeMultiset(g), edgeMultiset(tt)
		if len(a) != len(bms) {
			return false
		}
		for k, v := range a {
			if bms[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random graphs, in-degree sums equal out-degree sums equal M,
// and WithInEdges passes validation.
func TestDegreeSumInvariant(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%80) + 1
		m := int(mRaw % 500)
		rng := rand.New(rand.NewSource(seed))
		var b Builder
		b.ForceN = n
		b.SetBase(0)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		g = g.WithInEdges()
		if g.Validate() != nil {
			return false
		}
		var outSum, inSum uint64
		for i := 0; i < g.N(); i++ {
			outSum += uint64(g.OutDegree(i))
			inSum += uint64(g.InDegree(i))
		}
		return outSum == g.M() && inSum == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWithInEdgesIdempotent(t *testing.T) {
	g := tiny(t, func(b *Builder) { b.BuildInEdges() })
	if g.WithInEdges() != g {
		t.Fatal("WithInEdges should return receiver when in-edges exist")
	}
}

func TestStripInEdges(t *testing.T) {
	g := tiny(t, func(b *Builder) { b.BuildInEdges() })
	s := g.StripInEdges()
	if s.HasInEdges() {
		t.Fatal("StripInEdges left in-edges")
	}
	if s.M() != g.M() || s.N() != g.N() {
		t.Fatal("StripInEdges changed the graph")
	}
}

func TestStripOutAdjacency(t *testing.T) {
	g := tiny(t, func(b *Builder) { b.BuildInEdges() })
	s, err := g.StripOutAdjacency()
	if err != nil {
		t.Fatal(err)
	}
	if s.HasOutAdjacency() {
		t.Fatal("out-adjacency not stripped")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Out-degrees survive (needed by PageRank's rank division).
	if s.OutDegree(0) != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", s.OutDegree(0))
	}
	if s.InDegree(2) != 2 {
		t.Fatal("in-adjacency lost")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OutNeighbors on stripped graph should panic")
		}
	}()
	_ = s.OutNeighbors(0)
}

func TestStripOutAdjacencyRequiresInEdges(t *testing.T) {
	g := tiny(t, nil)
	if _, err := g.StripOutAdjacency(); err == nil {
		t.Fatal("expected error without in-edges")
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := tiny(t, nil)
	count := 0
	g.Edges(func(s, d VertexID) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("Edges visited %d, want early stop at 2", count)
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges([]VertexID{0, 1}, []VertexID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if _, err := FromEdges([]VertexID{0}, nil); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestComputeStats(t *testing.T) {
	g := tiny(t, nil)
	s := ComputeStats("tiny", g)
	if s.V != 4 || s.E != 5 {
		t.Fatalf("stats V=%d E=%d", s.V, s.E)
	}
	if s.MaxOutDegree != 2 {
		t.Fatalf("MaxOutDegree = %d, want 2", s.MaxOutDegree)
	}
	if s.Isolated != 0 {
		t.Fatalf("Isolated = %d, want 0", s.Isolated)
	}
	if s.AvgOutDegree != 1.25 {
		t.Fatalf("AvgOutDegree = %v, want 1.25", s.AvgOutDegree)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestStatsIsolated(t *testing.T) {
	var b Builder
	b.ForceN = 5
	b.SetBase(0)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	s := ComputeStats("iso", g)
	if s.Isolated != 3 {
		t.Fatalf("Isolated = %d, want 3", s.Isolated)
	}
}

func TestDegreeHistogram(t *testing.T) {
	var b Builder
	b.ForceN = 4
	b.SetBase(0)
	// degrees: 0:3, 1:1, 2:0, 3:0
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 0)
	g := b.MustBuild()
	h := DegreeHistogram(g)
	// degree 0 -> bucket 0 (x2), degree 1 -> bucket 1, degree 3 -> bucket 2
	if h[0] != 2 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestGiniExtremes(t *testing.T) {
	// Uniform degrees: ring of 16, Gini ~ 0.
	var ring Builder
	for i := 0; i < 16; i++ {
		ring.AddEdge(VertexID(i), VertexID((i+1)%16))
	}
	rg := ring.MustBuild()
	if gi := GiniOutDegree(rg); gi > 0.05 {
		t.Fatalf("ring Gini = %v, want ~0", gi)
	}
	// Star: one hub with all edges, highly unequal.
	var star Builder
	for i := 1; i < 32; i++ {
		star.AddEdge(0, VertexID(i))
	}
	sg := star.MustBuild()
	if gi := GiniOutDegree(sg); gi < 0.8 {
		t.Fatalf("star Gini = %v, want >0.8", gi)
	}
}

func TestMemoryBytes(t *testing.T) {
	g := tiny(t, nil)
	want := uint64(5*4 + 5*4) // offsets (n+1)*4 + adj m*4
	if got := g.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	gi := g.WithInEdges()
	if gi.MemoryBytes() != 2*want {
		t.Fatalf("MemoryBytes with in-edges = %d, want %d", gi.MemoryBytes(), 2*want)
	}
}
