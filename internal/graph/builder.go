package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates edges given with external vertex identifiers and
// produces an immutable CSR Graph. It discovers the identifier range
// (min..max) and maps external identifier x to internal index x-min, which
// is exactly the consecutive-identifier requirement of the paper (§3.3).
//
// The zero value is ready to use.
type Builder struct {
	src, dst []VertexID
	haveAny  bool
	min, max VertexID

	// ForceN, when non-zero, fixes the vertex count even if some vertices
	// have no incident edges (identifiers min..min+ForceN-1).
	ForceN int
	// ForceBase, when set via SetBase, fixes the smallest identifier.
	forceBase    VertexID
	haveBase     bool
	undirected   bool
	buildInEdges bool
	dedup        bool
	sortAdj      bool
	compress     bool
}

// SetBase fixes the external base identifier instead of discovering the
// minimum from the edges. Edges referencing identifiers below the base
// cause Build to fail.
func (b *Builder) SetBase(base VertexID) { b.forceBase, b.haveBase = base, true }

// Undirected makes Build insert the reverse of every added edge as well.
func (b *Builder) Undirected() *Builder { b.undirected = true; return b }

// BuildInEdges makes Build also materialise the in-adjacency.
func (b *Builder) BuildInEdges() *Builder { b.buildInEdges = true; return b }

// Dedup makes Build drop duplicate (src,dst) pairs and self-loops are kept;
// it implies sorted adjacency lists.
func (b *Builder) Dedup() *Builder { b.dedup = true; b.sortAdj = true; return b }

// SortAdjacency makes Build sort each adjacency list ascending.
func (b *Builder) SortAdjacency() *Builder { b.sortAdj = true; return b }

// Compress makes Build return the block-compressed adjacency backend
// (compressed.go). It implies SortAdjacency: sorted neighbour runs make
// the varint deltas small, which is where the compression ratio comes
// from. Use (*Graph).Compress directly to compress an existing graph
// without reordering its neighbour lists.
func (b *Builder) Compress() *Builder { b.compress = true; b.sortAdj = true; return b }

// AddEdge records a directed edge between two external identifiers.
func (b *Builder) AddEdge(src, dst VertexID) {
	b.src = append(b.src, src)
	b.dst = append(b.dst, dst)
	if !b.haveAny {
		b.min, b.max = src, src
		b.haveAny = true
	}
	b.observe(src)
	b.observe(dst)
}

func (b *Builder) observe(v VertexID) {
	if v < b.min {
		b.min = v
	}
	if v > b.max {
		b.max = v
	}
}

// Grow pre-allocates capacity for n additional edges.
func (b *Builder) Grow(n int) {
	if cap(b.src)-len(b.src) < n {
		b.src = append(make([]VertexID, 0, len(b.src)+n), b.src...)
		b.dst = append(make([]VertexID, 0, len(b.dst)+n), b.dst...)
	}
}

// layout returns the base and vertex count Build gives the edges added so
// far, and refuses m edges that do not fit one adjacency direction
// (ErrTooManyEdges) before anything is counted.
func (b *Builder) layout(m int) (base VertexID, n int, err error) {
	if err := EdgesFit(uint64(m)); err != nil {
		return 0, 0, err
	}
	base = b.min
	if b.haveBase {
		base = b.forceBase
		if b.haveAny && b.min < base {
			return 0, 0, fmt.Errorf("graph: edge references identifier %d below base %d", b.min, base)
		}
	}
	if b.haveAny {
		n = int(b.max-base) + 1
	}
	if b.ForceN > 0 {
		if n > b.ForceN {
			return 0, 0, fmt.Errorf("graph: edges span %d vertices but ForceN=%d", n, b.ForceN)
		}
		n = b.ForceN
	}
	return base, n, nil
}

// Build produces the CSR graph. The Builder must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	m := len(b.src)
	if b.undirected {
		m *= 2
	}
	base, n, err := b.layout(m)
	if err != nil {
		return nil, err
	}

	outOff := make([]uint32, n+1)
	for i, s := range b.src {
		outOff[s-base+1]++
		if b.undirected {
			outOff[b.dst[i]-base+1]++
		}
	}
	for i := 0; i < n; i++ {
		outOff[i+1] += outOff[i]
	}
	outAdj := make([]VertexID, m)
	cursor := make([]uint32, n)
	copy(cursor, outOff[:n])
	for i, s := range b.src {
		u, v := int(s-base), b.dst[i]-base
		outAdj[cursor[u]] = v
		cursor[u]++
		if b.undirected {
			outAdj[cursor[v]] = VertexID(u)
			cursor[v]++
		}
	}
	b.src, b.dst = nil, nil // release

	g := &Graph{n: n, base: base, outOff: outOff, outAdj: outAdj}
	if b.sortAdj || b.dedup {
		sortAdjacency(g.outOff, g.outAdj)
	}
	if b.dedup {
		g.outOff, g.outAdj = dedupCSR(n, g.outOff, g.outAdj)
	}
	if b.buildInEdges {
		// reverseCSR lists in-neighbours in ascending order already.
		g.inOff, g.inAdj, _ = reverseCSR(n, g.outOff, g.outAdj, nil)
	}
	if b.compress {
		return g.Compress()
	}
	return g.sealed(), nil
}

// MustBuild is Build but panics on error; intended for tests and
// generators whose inputs are known valid.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func sortAdjacency(off []uint32, adj []VertexID) {
	for i := 0; i+1 < len(off); i++ {
		slices.Sort(adj[off[i]:off[i+1]])
	}
}

// dedupCSR removes consecutive duplicates from each (sorted) adjacency
// list, rebuilding the offsets.
func dedupCSR(n int, off []uint32, adj []VertexID) ([]uint32, []VertexID) {
	nOff := make([]uint32, n+1)
	w := 0
	for i := 0; i < n; i++ {
		start := w
		for _, v := range adj[off[i]:off[i+1]] {
			if w == start || v != adj[w-1] {
				adj[w] = v
				w++
			}
		}
		nOff[i+1] = uint32(w)
	}
	return nOff, adj[:w:w]
}

// FromEdges is a convenience constructor building a directed graph from
// parallel src/dst slices of external identifiers.
func FromEdges(src, dst []VertexID) (*Graph, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: FromEdges length mismatch %d != %d", len(src), len(dst))
	}
	var b Builder
	b.Grow(len(src))
	for i := range src {
		b.AddEdge(src[i], dst[i])
	}
	return b.Build()
}
