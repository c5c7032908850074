package graph

import (
	"errors"
	"runtime"
	"testing"
)

// lowerEdgeCap sets maxEdges for the rest of the test, so that a few
// edges reach the refusals a real graph reaches past 2^32 − 1.
func lowerEdgeCap(t *testing.T, m uint64) {
	old := maxEdges
	maxEdges = m
	t.Cleanup(func() { maxEdges = old })
}

// panicErr runs fn and returns the error it panicked with, or nil.
func panicErr(fn func()) (err error) {
	defer func() { err, _ = recover().(error) }()
	fn()
	return nil
}

func wantTooMany(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrTooManyEdges) {
		t.Fatalf("%s: %v, want ErrTooManyEdges", what, err)
	}
}

// fiveEdges is a five-edge graph on four vertices, built under the real
// cap.
func fiveEdges(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges([]VertexID{0, 0, 1, 2, 3}, []VertexID{1, 2, 2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEdgeCapBuilders(t *testing.T) {
	lowerEdgeCap(t, 4)
	var b Builder
	for i := VertexID(0); i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
	}
	_, err := b.Build()
	wantTooMany(t, "Builder.Build, 5 edges", err)

	// Undirected doubling counts: 3 edges are 6 out-edges.
	var u Builder
	u.Undirected()
	for i := VertexID(0); i < 3; i++ {
		u.AddEdge(i, i+1)
	}
	_, err = u.Build()
	wantTooMany(t, "undirected Builder.Build, 3 edges", err)

	var wb WeightedBuilder
	for i := VertexID(0); i < 5; i++ {
		wb.AddEdge(i, (i+1)%5, uint32(i))
	}
	_, err = wb.Build()
	wantTooMany(t, "WeightedBuilder.Build, 5 edges", err)

	// At the cap exactly, both build.
	var at Builder
	for i := VertexID(0); i < 4; i++ {
		at.AddEdge(i, (i+1)%4)
	}
	if g, err := at.Build(); err != nil || g.M() != 4 {
		t.Fatalf("4 edges at a cap of 4: %v", err)
	}
}

func TestEdgeCapFromCSR(t *testing.T) {
	off, adj := []uint32{0, 2, 5}, []VertexID{0, 1, 0, 1, 1}
	lowerEdgeCap(t, 4)
	_, err := FromCSR(0, off, adj, nil)
	wantTooMany(t, "FromCSR, 5 edges", err)
	lowerEdgeCap(t, 5)
	if _, err := FromCSR(0, off, adj, nil); err != nil {
		t.Fatalf("FromCSR at the cap: %v", err)
	}
}

// Symmetrize counts both directions of every edge before deduplicating,
// and refuses before it allocates the 2·M builder edges it would need.
func TestEdgeCapSymmetrize(t *testing.T) {
	const n = 5000
	src, dst := make([]VertexID, n), make([]VertexID, n)
	for i := range src {
		src[i], dst[i] = VertexID(i), VertexID((i+1)%n)
	}
	ring, err := FromEdges(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	lowerEdgeCap(t, 2*n-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = panicErr(func() { ring.Symmetrize(false) })
	runtime.ReadMemStats(&after)
	wantTooMany(t, "Symmetrize, 2×5000 edges", err)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4*n {
		t.Fatalf("Symmetrize allocated %d bytes before refusing", alloc)
	}
	lowerEdgeCap(t, 2*n)
	if s := ring.Symmetrize(true); s.M() != 2*n {
		t.Fatalf("Symmetrize at the cap: M = %d, want %d", s.M(), 2*n)
	}
}

// Every in-adjacency build and Decompress refuse a direction the cap no
// longer admits: flat, compressed, deferred and the weighted transpose.
func TestEdgeCapInEdgeBuilds(t *testing.T) {
	g := fiveEdges(t)
	cg, err := g.Compress()
	if err != nil {
		t.Fatal(err)
	}
	var wb WeightedBuilder
	g.Edges(func(s, d VertexID) bool { wb.AddEdge(s, d, 1); return true })
	wg := wb.MustBuild()
	lowerEdgeCap(t, 4)
	for name, fn := range map[string]func(){
		"flat WithInEdges":       func() { g.WithInEdges() },
		"flat Transpose":         func() { g.Transpose() },
		"weighted Transpose":     func() { wg.Transpose() },
		"compressed WithInEdges": func() { cg.WithInEdges() },
		"deferred InNeighbors":   func() { g.WithInEdgesOnDemand().InNeighbors(0) },
		"Decompress":             func() { cg.Decompress() },
	} {
		wantTooMany(t, name, panicErr(fn))
	}
}

// The inlined fast paths test flatOut and flatIn alone, so every
// constructor must leave them saying whether outAdj and inAdj are there.
func TestFlatFlagsMatchArrays(t *testing.T) {
	g := fiveEdges(t)
	gi := g.WithInEdges()
	cg, err := gi.Compress()
	if err != nil {
		t.Fatal(err)
	}
	strip, err := gi.StripOutAdjacency()
	if err != nil {
		t.Fatal(err)
	}
	var wb WeightedBuilder
	wb.BuildInEdges()
	g.Edges(func(s, d VertexID) bool { wb.AddEdge(s, d, 1); return true })
	fc, err := FromCSR(0, []uint32{0, 1, 1}, []VertexID{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deferred := g.WithInEdgesOnDemand()
	deferred.InDegree(0)
	for name, h := range map[string]*Graph{
		"Builder": g, "WithInEdges": gi, "Transpose": g.Transpose(), "StripInEdges": gi.StripInEdges(),
		"StripOutAdjacency": strip, "Compress": cg, "Decompress": cg.Decompress(), "FromCSR": fc,
		"WeightedBuilder": wb.MustBuild(), "weighted Transpose": wb.MustBuild().Transpose(),
		"Symmetrize": g.Symmetrize(true), "deferred": deferred, "deferred build": deferred.in(),
	} {
		if h.flatOut != (h.outAdj != nil) || h.flatIn != (h.inAdj != nil) {
			t.Errorf("%s: flatOut=%v flatIn=%v, arrays out=%v in=%v", name, h.flatOut, h.flatIn, h.outAdj != nil, h.inAdj != nil)
		}
	}
}
