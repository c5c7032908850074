package graph

import (
	"errors"
	"fmt"
)

// Edge weights are an optional, parallel array to the out-adjacency: the
// weight of the j-th edge of vertex i is Weights()[outOff[i]+j]. The
// paper's evaluation treats all edges as unit weight (§4 footnote 1) but
// its USA-road input file carries real distances; weighted graphs let the
// weighted-SSSP extension use them.
//
// Weighted graphs are built with WeightedBuilder. Dedup and undirected
// doubling are not supported for weighted edges (ambiguous semantics);
// transposition carries weights along.

// ErrNoWeights is returned by weight accessors on unweighted graphs.
var ErrNoWeights = errors.New("graph: graph has no edge weights")

// weights is stored on Graph; nil for unweighted graphs.

// HasWeights reports whether per-edge weights are present.
func (g *Graph) HasWeights() bool { return g.outW != nil }

// OutEdgesWeighted returns vertex i's out-neighbours and the matching
// weights. It panics with ErrNoWeights on unweighted graphs, and with
// ErrCompressedAdjacency on the compressed backend — use
// OutEdgesWeightedWith there.
func (g *Graph) OutEdgesWeighted(i int) ([]VertexID, []uint32) {
	if g.outC != nil {
		panic(ErrCompressedAdjacency)
	}
	if g.outW == nil {
		panic(ErrNoWeights)
	}
	lo, hi := g.outOff[i], g.outOff[i+1]
	return g.outAdj[lo:hi], g.outW[lo:hi]
}

// WeightedBuilder accumulates weighted directed edges.
type WeightedBuilder struct {
	b       Builder
	weights []uint32
}

// SetBase fixes the external base identifier (see Builder.SetBase).
func (wb *WeightedBuilder) SetBase(base VertexID) { wb.b.SetBase(base) }

// ForceN fixes the vertex count (see Builder.ForceN).
func (wb *WeightedBuilder) ForceN(n int) { wb.b.ForceN = n }

// BuildInEdges materialises the in-adjacency (in-edges do not carry
// weights; only the out direction is weighted).
func (wb *WeightedBuilder) BuildInEdges() { wb.b.BuildInEdges() }

// Grow pre-allocates capacity for n additional edges.
func (wb *WeightedBuilder) Grow(n int) {
	wb.b.Grow(n)
	if cap(wb.weights)-len(wb.weights) < n {
		wb.weights = append(make([]uint32, 0, len(wb.weights)+n), wb.weights...)
	}
}

// AddEdge records a directed edge with a weight.
func (wb *WeightedBuilder) AddEdge(src, dst VertexID, w uint32) {
	wb.b.AddEdge(src, dst)
	wb.weights = append(wb.weights, w)
}

// Build produces the weighted CSR graph.
func (wb *WeightedBuilder) Build() (*Graph, error) {
	if wb.b.undirected || wb.b.dedup || wb.b.sortAdj {
		return nil, fmt.Errorf("graph: weighted builder does not support undirected/dedup/sort")
	}
	// Replay the same counting construction as Builder.Build but permute
	// the weights alongside the destinations.
	src, dst := wb.b.src, wb.b.dst
	m := len(src)
	base, n, err := wb.b.layout(m)
	if err != nil {
		return nil, err
	}
	outOff := make([]uint32, n+1)
	for _, s := range src {
		outOff[s-base+1]++
	}
	for i := 0; i < n; i++ {
		outOff[i+1] += outOff[i]
	}
	outAdj := make([]VertexID, m)
	outW := make([]uint32, m)
	cursor := make([]uint32, n)
	copy(cursor, outOff[:n])
	for i, s := range src {
		u := int(s - base)
		outAdj[cursor[u]] = dst[i] - base
		outW[cursor[u]] = wb.weights[i]
		cursor[u]++
	}
	g := &Graph{n: n, base: base, outOff: outOff, outAdj: outAdj, outW: outW}
	if wb.b.buildInEdges {
		g.inOff, g.inAdj, _ = reverseCSR(n, outOff, outAdj, nil)
	}
	wb.b.src, wb.b.dst, wb.weights = nil, nil, nil
	return g.sealed(), nil
}

// MustBuild is Build but panics on error.
func (wb *WeightedBuilder) MustBuild() *Graph {
	g, err := wb.Build()
	if err != nil {
		panic(err)
	}
	return g
}
