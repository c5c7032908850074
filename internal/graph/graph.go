// Package graph provides the compressed-sparse-row (CSR) graph storage that
// every framework in this repository (the iPregel engines and the Pregel+
// baseline) computes on.
//
// A Graph stores vertices under dense internal indices 0..N()-1. The
// external identifiers found in input files may start at an arbitrary base
// (the paper's Wikipedia and USA-road graphs start at 1); the base is
// recorded so package core's offset mapping (paper §5) can translate
// between external identifiers and its slots, which are the internal
// indices: slot = id − base.
//
// Out-adjacency is always present. In-adjacency is optional: it is required
// only by the pull-based combiner and is a significant memory cost, which is
// exactly the trade-off the paper's multi-version design exposes (§3.2,
// §6.2). Call WithInEdges or Transpose to materialise it, or
// WithInEdgesOnDemand to have the first reader pay for it.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// VertexID is an external vertex identifier as found in input files.
// iPregel requires integral, consecutive identifiers (paper §3.3); 32 bits
// match the paper's assumption of 4-byte identifiers (§7.4.2).
type VertexID uint32

// Graph is an immutable directed graph in CSR form. The zero value is an
// empty graph. Construct real graphs with a Builder (builder.go) or the
// generators in internal/gen.
type Graph struct {
	n    int
	base VertexID

	outOff []uint32
	outAdj []VertexID
	// outW holds per-edge weights parallel to outAdj; nil when the graph
	// is unweighted (see weights.go).
	outW []uint32

	// in-CSR; nil slices when in-edges were not requested.
	inOff []uint32
	inAdj []VertexID

	// Block-compressed adjacency (compressed.go); when outC is non-nil
	// the flat outOff/outAdj are nil and the slice accessors panic with
	// ErrCompressedAdjacency. inC likewise replaces inOff/inAdj.
	outC *compressedAdj
	inC  *compressedAdj

	// deferred, when non-nil, stands for an in-adjacency that is derived
	// from the out side by the first call that reads it
	// (WithInEdgesOnDemand); the in fields above stay nil on such a graph.
	deferred *deferredIn

	// flatOut and flatIn say that outAdj and inAdj hold the neighbour
	// lists: the one test the inlined fast paths of OutNeighborsWith and
	// InNeighborsWith make (a nil test would not inline). sealed sets them.
	flatOut, flatIn bool
}

// sealed sets the fast-path flags; every constructor returns through it.
func (g *Graph) sealed() *Graph {
	g.flatOut, g.flatIn = g.outAdj != nil, g.inAdj != nil
	return g
}

// deferredIn guards the one build of an on-demand in-adjacency. It is
// held through a pointer so that a Graph stays copyable.
type deferredIn struct {
	mu sync.Mutex
	// built is the receiver's twin with the in fields filled and no
	// deferral of its own; nil until the first in-side read.
	built atomic.Pointer[Graph]
	// closed (guarded by mu) forbids the build: the storage the out side
	// aliases is gone (MarkClosed).
	closed bool
}

// in returns the graph whose in fields hold g's in-adjacency: g itself,
// or on a deferred graph its built twin, building it on the first call.
// Concurrent first callers block on the one build and then share its
// slices. Every in-side reader starts here; without a deferral it costs
// one nil test.
func (g *Graph) in() *Graph {
	if g.deferred == nil {
		return g
	}
	return g.deferred.force(g)
}

func (d *deferredIn) force(g *Graph) *Graph {
	if b := d.built.Load(); b != nil {
		return b
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.built.Load()
	if b == nil {
		if d.closed {
			panic(ErrClosed)
		}
		b = g.buildInEdges()
		d.built.Store(b)
	}
	return b
}

// ErrClosed is panicked on by the in-side read that would build a
// deferred in-adjacency (WithInEdgesOnDemand) after MarkClosed: the build
// reads the out-adjacency, whose storage is gone.
var ErrClosed = errors.New("graph: the storage this graph's adjacency aliases was closed; its deferred in-edges can no longer be built")

// MarkClosed records that the storage g's out-adjacency aliases is about
// to be released (graphio.Mapped.Close calls it before unmapping). An
// in-adjacency still deferred is never built: the read that would build it
// panics with ErrClosed instead of reading released memory. A build in
// progress finishes first, and one already done stays usable. On a graph
// without a deferral it does nothing.
func (g *Graph) MarkClosed() {
	if d := g.deferred; d != nil {
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
	}
}

// resident is in without the build: what is in memory now. The readers
// that report on a graph rather than traverse it (MemoryBytes, Validate,
// InEdgesResident and through it ComputeStats) use it, so they neither force a deferred in-adjacency nor
// race with a first use in progress.
func (g *Graph) resident() *Graph {
	if d := g.deferred; d != nil {
		if b := d.built.Load(); b != nil {
			return b
		}
	}
	return g
}

// ErrNoInEdges is returned or panicked on by operations that require the
// in-adjacency when the graph was built without it.
var ErrNoInEdges = errors.New("graph: in-edges were not built (use WithInEdges or Builder.BuildInEdges)")

// ErrTooManyEdges is returned, or panicked on where no error can be, by
// every construction and loader that would give one adjacency direction
// more than 2^32 − 1 edges, past its 4-byte offsets. Both of the paper's
// largest graphs (Friendster, Twitter) fit.
var ErrTooManyEdges = errors.New("graph: an adjacency direction would hold more than 2^32-1 edges, past its 4-byte offsets")

// maxEdges is the most edges one adjacency direction may hold. Tests
// lower it to reach the refusals with a few edges; it is not a knob.
var maxEdges uint64 = math.MaxUint32

// EdgesFit returns nil when m edges fit one adjacency direction, and an
// error wrapping ErrTooManyEdges otherwise.
func EdgesFit(m uint64) error {
	if m > maxEdges {
		return fmt.Errorf("%w (%d edges)", ErrTooManyEdges, m)
	}
	return nil
}

// mustFit is EdgesFit for the constructions that return no error.
func mustFit(m uint64) {
	if err := EdgesFit(m); err != nil {
		panic(err)
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() uint64 {
	if g.outC != nil {
		return g.outC.m
	}
	if g.n == 0 {
		return 0
	}
	return uint64(g.outOff[g.n])
}

// Base returns the smallest external vertex identifier. Internal index i
// corresponds to external identifier Base()+i.
func (g *Graph) Base() VertexID { return g.base }

// ExternalID converts an internal index to the external identifier.
func (g *Graph) ExternalID(i int) VertexID { return g.base + VertexID(i) }

// HasInEdges reports whether the graph serves in-side reads: the
// in-adjacency was materialised, or is derived on demand
// (WithInEdgesOnDemand).
func (g *Graph) HasInEdges() bool { return g.inOff != nil || g.inC != nil || g.deferred != nil }

// InEdgesResident reports whether the in-adjacency is in memory now. It
// differs from HasInEdges only on a WithInEdgesOnDemand graph nothing has
// read the in side of yet.
func (g *Graph) InEdgesResident() bool {
	g = g.resident()
	return g.inOff != nil || g.inC != nil
}

// ErrNoOutAdjacency is panicked on by operations that enumerate
// out-neighbours when the graph was reduced with StripOutAdjacency.
var ErrNoOutAdjacency = errors.New("graph: out-adjacency was stripped (StripOutAdjacency); only out-degrees are available")

// OutNeighbors returns the out-neighbour internal indices of vertex i as a
// shared slice; callers must not modify it. It panics with
// ErrNoOutAdjacency on a graph reduced by StripOutAdjacency, and with
// ErrCompressedAdjacency on the compressed backend, which has no shared
// slice to return — use OutNeighborsWith or ForEachOutNeighbor there.
func (g *Graph) OutNeighbors(i int) []VertexID {
	if g.outC != nil {
		panic(ErrCompressedAdjacency)
	}
	if g.outAdj == nil && g.outOff[i] != g.outOff[i+1] {
		panic(ErrNoOutAdjacency)
	}
	return g.outAdj[g.outOff[i]:g.outOff[i+1]]
}

// InNeighbors returns the in-neighbour internal indices of vertex i as a
// shared slice; callers must not modify it. It panics with ErrNoInEdges if
// in-edges were not built, and with ErrCompressedAdjacency on the
// compressed backend — use InNeighborsWith or ForEachInNeighbor there.
func (g *Graph) InNeighbors(i int) []VertexID {
	g = g.in()
	if g.inC != nil {
		panic(ErrCompressedAdjacency)
	}
	if g.inOff == nil {
		panic(ErrNoInEdges)
	}
	return g.inAdj[g.inOff[i]:g.inOff[i+1]]
}

// OutDegree returns the out-degree of vertex i.
func (g *Graph) OutDegree(i int) int {
	if g.outC != nil {
		return int(g.outC.deg[i])
	}
	return int(g.outOff[i+1] - g.outOff[i])
}

// InDegree returns the in-degree of vertex i. It panics with ErrNoInEdges
// if in-edges were not built.
func (g *Graph) InDegree(i int) int {
	g = g.in()
	if g.inC != nil {
		return int(g.inC.deg[i])
	}
	if g.inOff == nil {
		panic(ErrNoInEdges)
	}
	return int(g.inOff[i+1] - g.inOff[i])
}

// Edges calls fn(src, dst) for every directed edge, in CSR order. It stops
// early if fn returns false. Works on both backends (one linear decode
// pass on the compressed one).
func (g *Graph) Edges(fn func(src, dst VertexID) bool) {
	if g.outC != nil {
		g.outC.scan(func(u int, v VertexID) bool { return fn(VertexID(u), v) })
		return
	}
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if !fn(VertexID(u), v) {
				return
			}
		}
	}
}

// Validate checks the structural invariants of the CSR arrays: monotone
// offsets, terminal offset equal to the adjacency length, and neighbour
// indices within range. It returns nil for a well-formed graph. An
// in-adjacency still to be derived on demand has nothing to check.
func (g *Graph) Validate() error {
	g = g.resident()
	if g.outC != nil || g.inC != nil {
		return g.validateCompressed()
	}
	if g.outAdj == nil && g.n > 0 && g.outOff[g.n] > 0 {
		// degree-only layout: offsets must still be a valid prefix-sum
		for i := 0; i < g.n; i++ {
			if g.outOff[i+1] < g.outOff[i] {
				return fmt.Errorf("graph: out offsets not monotone at %d", i)
			}
		}
	} else if err := validateCSR("out", g.n, g.outOff, g.outAdj); err != nil {
		return err
	}
	if g.inOff != nil {
		if err := validateCSR("in", g.n, g.inOff, g.inAdj); err != nil {
			return err
		}
		if g.inOff[g.n] != g.outOff[g.n] {
			return fmt.Errorf("graph: in-edge count %d != out-edge count %d", g.inOff[g.n], g.outOff[g.n])
		}
	}
	return nil
}

// validateCompressed re-checks the block invariants of the compressed
// backend (a full decode sweep per direction, cut into spans as
// compressedAdj.check cuts it).
func (g *Graph) validateCompressed() error {
	if g.outC == nil {
		return fmt.Errorf("graph: compressed in-adjacency on a flat out-adjacency")
	}
	if err := g.outC.check(); err != nil {
		return fmt.Errorf("out: %w", err)
	}
	if g.inC != nil {
		if err := g.inC.check(); err != nil {
			return fmt.Errorf("in: %w", err)
		}
		if g.inC.m != g.outC.m {
			return fmt.Errorf("graph: in-edge count %d != out-edge count %d", g.inC.m, g.outC.m)
		}
	}
	if g.outW != nil && uint64(len(g.outW)) != g.outC.m {
		return fmt.Errorf("graph: weight array length %d, want edge count %d", len(g.outW), g.outC.m)
	}
	return nil
}

func validateCSR(kind string, n int, off []uint32, adj []VertexID) error {
	if len(off) != n+1 {
		return fmt.Errorf("graph: %s offsets length %d, want %d", kind, len(off), n+1)
	}
	if off[0] != 0 {
		return fmt.Errorf("graph: %s offsets[0] = %d, want 0", kind, off[0])
	}
	for i := 0; i < n; i++ {
		if off[i+1] < off[i] {
			return fmt.Errorf("graph: %s offsets not monotone at %d: %d > %d", kind, i, off[i], off[i+1])
		}
	}
	if uint64(off[n]) != uint64(len(adj)) {
		return fmt.Errorf("graph: %s offsets[n] = %d, want %d", kind, off[n], len(adj))
	}
	for i, v := range adj {
		if int(v) >= n {
			return fmt.Errorf("graph: %s adjacency[%d] = %d out of range (n=%d)", kind, i, v, n)
		}
	}
	return nil
}

// Transpose returns a new graph with every edge reversed. The result has
// in-edges materialised if and only if the receiver's out-edges exist
// (always), i.e. the transpose's out-CSR is the receiver's in-CSR. If the
// receiver lacks in-edges they are computed. A compressed receiver yields
// a compressed transpose (the two compressed CSRs simply swap roles);
// only the weighted-compressed combination is unsupported, as weights are
// stored edge-ordered against the out-CSR.
func (g *Graph) Transpose() *Graph {
	if g.IsCompressed() && g.outW != nil {
		panic(ErrCompressedAdjacency)
	}
	if g.outW != nil {
		rOff, rAdj, rW := reverseCSR(g.n, g.outOff, g.outAdj, g.outW)
		return (&Graph{n: g.n, base: g.base, outOff: rOff, outAdj: rAdj, outW: rW, inOff: g.outOff, inAdj: g.outAdj}).sealed()
	}
	if g = g.in(); !g.HasInEdges() {
		g = g.buildInEdges()
	}
	return (&Graph{
		n:      g.n,
		base:   g.base,
		outOff: g.inOff,
		outAdj: g.inAdj,
		outC:   g.inC,
		inOff:  g.outOff,
		inAdj:  g.outAdj,
		inC:    g.outC,
	}).sealed()
}

// WithInEdges returns a graph sharing the receiver's out-CSR with the
// in-CSR materialised. If in-edges already exist the receiver is returned
// unchanged; if they are on demand (WithInEdgesOnDemand) they are built
// now and the receiver is returned. On a compressed receiver the
// in-adjacency is built by one decode pass and stored compressed as well
// (so an mmap-loaded IPG3 graph can serve the pull combiner). Every
// in-adjacency build panics with ErrTooManyEdges on an over-cap graph.
func (g *Graph) WithInEdges() *Graph {
	if g.in().HasInEdges() {
		return g
	}
	return g.buildInEdges()
}

// WithInEdgesOnDemand returns a graph sharing the receiver's out-CSR whose
// in-adjacency is built, exactly as WithInEdges builds it, by the first
// call that reads the in side — InNeighbors, InDegree, InNeighborsWith,
// ForEachInNeighbor, WithInEdges, Transpose, Compress, Decompress or
// StripOutAdjacency — and kept from then on. HasInEdges is true at once;
// MemoryBytes, Validate, IsCompressed and ComputeStats report what is
// resident and never trigger the build. A run that never reads the in
// side never pays for it, which is why the loaders that derive the
// in-direction from a finished out-adjacency (graphio.OpenMapped, the
// IPG3 reader) return this form. If in-edges already exist the receiver is
// returned unchanged.
func (g *Graph) WithInEdgesOnDemand() *Graph {
	if g.HasInEdges() {
		return g
	}
	ng := *g
	ng.deferred = new(deferredIn)
	return &ng
}

// buildInEdges is WithInEdges on a graph that has none resident; the
// result never carries a deferral.
func (g *Graph) buildInEdges() *Graph {
	if g.outC != nil {
		inOff, inAdj := reverseCompressed(g.outC)
		return &Graph{n: g.n, base: g.base, outC: g.outC, outW: g.outW, inC: compressCSR(g.n, inOff, inAdj)}
	}
	inOff, inAdj, _ := reverseCSR(g.n, g.outOff, g.outAdj, nil)
	return (&Graph{n: g.n, base: g.base, outOff: g.outOff, outAdj: g.outAdj, outW: g.outW, inOff: inOff, inAdj: inAdj}).sealed()
}

// reverseCompressed builds the reversed flat CSR from a compressed
// adjacency with the same two-pass counting construction as reverseCSR,
// replacing the slice walks with in-order decodes through one
// NeighborBuf (every vertex a cursor continuation, no call per edge).
func reverseCompressed(c *compressedAdj) ([]uint32, []VertexID) {
	mustFit(c.m)
	rOff := make([]uint32, c.n+1)
	var nb NeighborBuf
	for u := range c.deg {
		ns, _ := nb.neighbors(c, u)
		for _, v := range ns {
			rOff[v+1]++
		}
	}
	for i := 0; i < c.n; i++ {
		rOff[i+1] += rOff[i]
	}
	rAdj := make([]VertexID, c.m)
	cursor := make([]uint32, c.n)
	copy(cursor, rOff[:c.n])
	for u := range c.deg {
		ns, _ := nb.neighbors(c, u)
		for _, v := range ns {
			rAdj[cursor[v]] = VertexID(u)
			cursor[v]++
		}
	}
	return rOff, rAdj
}

// StripInEdges returns a graph sharing the receiver's out-CSR with no
// in-adjacency, mirroring the paper's lightest vertex internals ("out
// only", §3.2). An in-adjacency still to be derived on demand is dropped
// with the rest.
func (g *Graph) StripInEdges() *Graph {
	return (&Graph{n: g.n, base: g.base, outOff: g.outOff, outAdj: g.outAdj, outW: g.outW, outC: g.outC}).sealed()
}

// HasOutAdjacency reports whether out-neighbour lists are materialised
// (flat or compressed). It is false only for graphs produced by
// StripOutAdjacency.
func (g *Graph) HasOutAdjacency() bool { return g.n == 0 || g.outAdj != nil || g.outC != nil }

// StripOutAdjacency returns the paper's "in only" vertex internals
// (§3.2): in-adjacency plus out-*degrees* (kept via the out offsets, which
// PageRank's rank division needs) but no out-neighbour lists. This is the
// layout that lets the pull-combiner PageRank process the Twitter graph
// in 11 GB (§7.4.3): broadcasts go to an outbox, so the sender never
// enumerates its out-neighbours. OutNeighbors panics on the result.
func (g *Graph) StripOutAdjacency() (*Graph, error) {
	if g.IsCompressed() {
		return nil, ErrCompressedAdjacency
	}
	if g = g.in(); g.inOff == nil {
		return nil, ErrNoInEdges
	}
	return (&Graph{n: g.n, base: g.base, outOff: g.outOff, outAdj: nil, inOff: g.inOff, inAdj: g.inAdj}).sealed(), nil
}

// Symmetrize returns a new graph containing every edge in both
// directions, deduplicated — the input Hashmin needs to label *weakly*
// connected components on a directed graph. Weights are not carried (the
// result is unweighted); in-edges equal out-edges by construction and are
// materialised when withInEdges is set. It panics with ErrTooManyEdges
// when 2·M edges, the count before deduplication, do not fit a direction.
func (g *Graph) Symmetrize(withInEdges bool) *Graph {
	mustFit(2 * g.M())
	var b Builder
	b.ForceN = g.n
	b.SetBase(g.base)
	b.Dedup()
	if withInEdges {
		b.BuildInEdges()
	}
	b.Grow(int(g.M()) * 2)
	g.Edges(func(s, d VertexID) bool {
		b.AddEdge(g.base+s, g.base+d)
		b.AddEdge(g.base+d, g.base+s)
		return true
	})
	return b.MustBuild()
}

// reverseCSR builds the reversed CSR using the classic two-pass counting
// construction, carrying per-edge weights along when w is non-nil (the
// returned weights are nil otherwise).
func reverseCSR(n int, off []uint32, adj []VertexID, w []uint32) ([]uint32, []VertexID, []uint32) {
	mustFit(uint64(len(adj)))
	rOff := make([]uint32, n+1)
	for _, v := range adj {
		rOff[v+1]++
	}
	for i := 0; i < n; i++ {
		rOff[i+1] += rOff[i]
	}
	rAdj := make([]VertexID, len(adj))
	var rW []uint32
	if w != nil {
		rW = make([]uint32, len(adj))
	}
	cursor := make([]uint32, n)
	copy(cursor, rOff[:n])
	for u := 0; u < n; u++ {
		for e := off[u]; e < off[u+1]; e++ {
			v := adj[e]
			rAdj[cursor[v]] = VertexID(u)
			if w != nil {
				rW[cursor[v]] = w[e]
			}
			cursor[v]++
		}
	}
	return rOff, rAdj, rW
}

// MemoryBytes returns the heap bytes held by the CSR arrays. It is used by
// internal/memmodel when attributing footprint to the graph itself versus
// framework overhead (paper §7.4.2 "graph binary size"). An in-adjacency
// derived on demand counts from the moment it is built.
func (g *Graph) MemoryBytes() uint64 {
	g = g.resident()
	b := uint64(len(g.outOff))*4 + uint64(len(g.outAdj))*4 + uint64(len(g.outW))*4
	if g.inOff != nil {
		b += uint64(len(g.inOff))*4 + uint64(len(g.inAdj))*4
	}
	if g.outC != nil {
		b += g.outC.memoryBytes()
	}
	if g.inC != nil {
		b += g.inC.memoryBytes()
	}
	return b
}
