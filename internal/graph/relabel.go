package graph

import "sort"

// Vertex relabelling: shared-memory graph frameworks commonly reorder
// vertices so that hot vertices share cache lines (degree ordering) —
// a locality optimisation in the same spirit as the paper's
// identifier-as-location addressing (§5), which requires consecutive
// identifiers and therefore composes with any relabelling applied at load
// time. Relabelled graphs keep the same base; the returned permutation
// lets callers translate results back.

// Relabel returns a graph in which old internal index i becomes
// perm[i], along with nothing else changed (weights and in-edges are
// carried when present). perm must be a permutation of 0..N()-1.
func (g *Graph) Relabel(perm []int) *Graph {
	n := g.n
	if len(perm) != n {
		panic("graph: Relabel permutation has wrong length")
	}
	if g.IsCompressed() {
		panic(ErrCompressedAdjacency)
	}
	if g.outAdj == nil && g.M() > 0 {
		panic(ErrNoOutAdjacency)
	}
	// Degree histogram under new labels.
	outOff := make([]uint64, n+1)
	for i := 0; i < n; i++ {
		outOff[perm[i]+1] = uint64(g.OutDegree(i))
	}
	for i := 0; i < n; i++ {
		outOff[i+1] += outOff[i]
	}
	outAdj := make([]VertexID, g.M())
	var outW []uint32
	if g.outW != nil {
		outW = make([]uint32, g.M())
	}
	for i := 0; i < n; i++ {
		ni := perm[i]
		cursor := outOff[ni]
		lo, hi := g.outOff[i], g.outOff[i+1]
		for e := lo; e < hi; e++ {
			outAdj[cursor] = VertexID(perm[g.outAdj[e]])
			if outW != nil {
				outW[cursor] = g.outW[e]
			}
			cursor++
		}
	}
	out := &Graph{n: n, base: g.base, outOff: outOff, outAdj: outAdj, outW: outW}
	if g.HasInEdges() {
		out.inOff, out.inAdj = reverseCSR(n, outOff, outAdj)
	}
	return out
}

// DegreeOrder returns the permutation that sorts vertices by descending
// out-degree (ties by original index), mapping old internal index to new.
// Applying it with Relabel clusters the high-degree hubs of a power-law
// graph at the front of every state array.
func DegreeOrder(g *Graph) []int {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.OutDegree(order[a]) > g.OutDegree(order[b])
	})
	perm := make([]int, n)
	for newIdx, oldIdx := range order {
		perm[oldIdx] = newIdx
	}
	return perm
}

// InvertPermutation returns the inverse mapping (new index → old index).
func InvertPermutation(perm []int) []int {
	inv := make([]int, len(perm))
	for old, new_ := range perm {
		inv[new_] = old
	}
	return inv
}
