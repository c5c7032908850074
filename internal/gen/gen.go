// Package gen produces the synthetic graphs this reproduction uses in place
// of the paper's datasets, which are public downloads (KONECT Wikipedia and
// Twitter (MPI), DIMACS USA-road-d, KONECT Friendster) and therefore not
// available in this offline environment.
//
// Substitution rationale (see DESIGN.md §2, item 4): the paper's analysis
// depends on two structural properties — the *degree distribution shape*
// (power-law hubs in Wikipedia/Twitter vs uniform low degree in USA roads)
// and the *density/diameter* (which drives superstep counts, §7.2–7.3).
// The generators below match those shapes:
//
//   - RMAT / RMATN: recursive-matrix (Kronecker-style) power-law graphs
//     standing in for Wikipedia/Twitter/Friendster.
//   - Road: a 2-D grid with bidirectional street edges (optional random
//     "highway" edges, none in the USARoad preset), standing in for
//     USA-road-d — near-uniform degree ~4 and O(sqrt(V)) diameter.
//   - Twitter(p, pct): proportional scaling used by Fig. 9's breaking-point
//     experiment ("a synthetic graph described as 20% contains a fifth of
//     the vertices and a fifth of the edges", §7.4.2).
//
// All generators are deterministic given a seed.
package gen

import (
	"fmt"
	"math/rand"

	"ipregel/internal/graph"
)

// RMATParams configures the recursive-matrix generator.
type RMATParams struct {
	// Scale sets the vertex count to 2^Scale.
	Scale int
	// EdgeFactor is the average out-degree: |E| = EdgeFactor * |V|.
	EdgeFactor int
	// A, B, C are the RMAT quadrant probabilities (D = 1-A-B-C). The
	// Graph500 defaults (0.57, 0.19, 0.19) produce a strong power law.
	A, B, C float64
	// Seed makes generation deterministic.
	Seed int64
	// Base is the smallest external identifier (the paper's graphs start
	// at 1).
	Base graph.VertexID
	// BuildInEdges materialises the in-adjacency.
	BuildInEdges bool
}

// DefaultRMAT returns Graph500-style parameters.
func DefaultRMAT(scale, edgeFactor int, seed int64) RMATParams {
	return RMATParams{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, Seed: seed, Base: 1}
}

// RMAT generates a directed power-law graph: RMATN's kernel at
// n = 2^Scale with p's quadrant probabilities.
func RMAT(p RMATParams) *graph.Graph {
	n := 1 << p.Scale
	return rmat(n, uint64(max(n*p.EdgeFactor, 0)), p.A, p.B, p.C, p.Seed, p.Base, p.BuildInEdges)
}

// rmat draws m edges by recursive quadrant descent at the least power of
// two ≥ n, rejecting those with an endpoint ≥ n. Each level reads one raw
// 63-bit draw x and counts the cuts it reaches: 0 is the top-left
// quadrant, bit 0 of the count sets the dst bit, bit 1 the src bit. The
// cuts make this the float walk `r := rng.Float64(); r < a, r < a+b,
// r < a+b+c` on the same stream (DESIGN.md §2, item 4).
func rmat(n int, m uint64, a, b, c float64, seed int64, base graph.VertexID, inEdges bool) *graph.Graph {
	if n < 1 && m > 0 {
		panic(fmt.Sprintf("gen: RMAT cannot place %d edges on %d vertices", m, n))
	}
	scale := 0
	for 1<<scale < n {
		scale++
	}
	// max keeps the cuts ordered, so a probability sum that falls (b or c
	// negative) still resolves to the first comparison that holds.
	cutA := cut(a)
	cutAB := max(cutA, cut(a+b))
	cutABC := max(cutAB, cut(a+b+c))
	cutOne := cut(1) // Float64 redraws a draw that rounds to 1.0
	src := rand.NewSource(seed)
	var bld graph.Builder
	bld.ForceN = n
	bld.SetBase(base)
	if inEdges {
		bld.BuildInEdges()
	}
	bld.Grow(int(m))
	for added := uint64(0); added < m; {
		var s, d int
		for bit := 0; bit < scale; bit++ {
			x := uint64(src.Int63())
			for x >= cutOne {
				x = uint64(src.Int63())
			}
			k := b2i(x >= cutA) + b2i(x >= cutAB) + b2i(x >= cutABC)
			d |= (k & 1) << bit
			s |= (k >> 1) << bit
		}
		if s >= n || d >= n {
			continue
		}
		bld.AddEdge(base+graph.VertexID(s), base+graph.VertexID(d))
		added++
	}
	return bld.MustBuild()
}

// cut is the least x in [0, 2^63) with !(float64(x)/(1<<63) < p), or 2^63
// if there is none: the quotient is monotone in x, so the comparison holds
// exactly below the cut.
func cut(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RoadParams configures the road-network generator.
type RoadParams struct {
	// Rows and Cols set the grid dimensions; |V| = Rows*Cols.
	Rows, Cols int
	// HighwayFraction adds this fraction of |V| extra long-range
	// bidirectional edges (default 0 keeps the pure grid).
	HighwayFraction float64
	Seed            int64
	Base            graph.VertexID
	BuildInEdges    bool
}

// Road generates a USA-road-style graph: a Rows×Cols grid where every
// neighbouring pair is connected in both directions (roads are two-way in
// USA-road-d, whose |E| ≈ 2.44·|V|), plus optional sparse highways.
func Road(p RoadParams) *graph.Graph {
	n := p.Rows * p.Cols
	var b graph.Builder
	b.ForceN = n
	b.SetBase(p.Base)
	if p.BuildInEdges {
		b.BuildInEdges()
	}
	id := func(r, c int) graph.VertexID { return p.Base + graph.VertexID(r*p.Cols+c) }
	approxEdges := 4*n + int(p.HighwayFraction*float64(n))*2
	b.Grow(approxEdges)
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			if c+1 < p.Cols {
				b.AddEdge(id(r, c), id(r, c+1))
				b.AddEdge(id(r, c+1), id(r, c))
			}
			if r+1 < p.Rows {
				b.AddEdge(id(r, c), id(r+1, c))
				b.AddEdge(id(r+1, c), id(r, c))
			}
		}
	}
	if p.HighwayFraction > 0 {
		rng := rand.New(rand.NewSource(p.Seed))
		extra := int(p.HighwayFraction * float64(n))
		for i := 0; i < extra; i++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			b.AddEdge(p.Base+u, p.Base+v)
			b.AddEdge(p.Base+v, p.Base+u)
		}
	}
	return b.MustBuild()
}

// ER generates a directed Erdős–Rényi G(n, m) graph (m edges drawn
// uniformly with replacement).
func ER(n, m int, seed int64, base graph.VertexID) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var b graph.Builder
	b.ForceN = n
	b.SetBase(base)
	b.Grow(m)
	for i := 0; i < m; i++ {
		b.AddEdge(base+graph.VertexID(rng.Intn(n)), base+graph.VertexID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// Ring generates a directed cycle of n vertices: i -> (i+1) mod n.
func Ring(n int, base graph.VertexID) *graph.Graph {
	var b graph.Builder
	b.ForceN = n
	b.SetBase(base)
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.AddEdge(base+graph.VertexID(i), base+graph.VertexID((i+1)%n))
	}
	return b.MustBuild()
}

// Star generates a hub with out-edges to n-1 leaves.
func Star(n int, base graph.VertexID) *graph.Graph {
	var b graph.Builder
	b.ForceN = n
	b.SetBase(base)
	b.Grow(n - 1)
	for i := 1; i < n; i++ {
		b.AddEdge(base, base+graph.VertexID(i))
	}
	return b.MustBuild()
}

// Complete generates the complete directed graph on n vertices (no self
// loops). Intended for small correctness tests only.
func Complete(n int, base graph.VertexID) *graph.Graph {
	var b graph.Builder
	b.ForceN = n
	b.SetBase(base)
	b.Grow(n * (n - 1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.AddEdge(base+graph.VertexID(i), base+graph.VertexID(j))
			}
		}
	}
	return b.MustBuild()
}

// Chain generates a directed path 0 -> 1 -> ... -> n-1; the worst case for
// SSSP superstep counts (diameter n-1), used by the Fig. 8 latency
// analysis tests.
func Chain(n int, base graph.VertexID) *graph.Graph {
	var b graph.Builder
	b.ForceN = n
	b.SetBase(base)
	b.Grow(n - 1)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(base+graph.VertexID(i), base+graph.VertexID(i+1))
	}
	return b.MustBuild()
}

// BarabasiAlbert generates a preferential-attachment graph: each new
// vertex attaches k undirected edges to existing vertices chosen
// proportionally to their current degree. The resulting power-law degree
// tail is sharper than RMAT's — an alternative social-network stand-in
// for sensitivity checks of the Fig. 7 shape claims.
func BarabasiAlbert(n, k int, seed int64, base graph.VertexID) *graph.Graph {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var b graph.Builder
	b.ForceN = n
	b.SetBase(base)
	b.Grow(2 * n * k)
	// endpoint list: each edge contributes both endpoints, so sampling a
	// uniform element of the list is degree-proportional sampling.
	endpoints := make([]int, 0, 2*n*k)
	// seed clique among the first k+1 vertices
	seedSize := k + 1
	if seedSize > n {
		seedSize = n
	}
	for i := 0; i < seedSize; i++ {
		for j := i + 1; j < seedSize; j++ {
			b.AddEdge(base+graph.VertexID(i), base+graph.VertexID(j))
			b.AddEdge(base+graph.VertexID(j), base+graph.VertexID(i))
			endpoints = append(endpoints, i, j)
		}
	}
	for v := seedSize; v < n; v++ {
		chosen := map[int]bool{}
		for len(chosen) < k {
			var u int
			if len(endpoints) == 0 {
				u = rng.Intn(v)
			} else {
				u = endpoints[rng.Intn(len(endpoints))]
			}
			if u == v || chosen[u] {
				// resample; fall back to uniform to guarantee progress
				u = rng.Intn(v)
				if u == v || chosen[u] {
					continue
				}
			}
			chosen[u] = true
			b.AddEdge(base+graph.VertexID(v), base+graph.VertexID(u))
			b.AddEdge(base+graph.VertexID(u), base+graph.VertexID(v))
			endpoints = append(endpoints, u, v)
		}
	}
	return b.MustBuild()
}

// WattsStrogatz generates a small-world graph: a ring lattice where every
// vertex connects to its k nearest clockwise neighbours, with each edge's
// far endpoint rewired uniformly at random with probability beta. Low
// diameter with near-uniform degree — the opposite corner of the
// shape space from both RMAT and road grids.
func WattsStrogatz(n, k int, beta float64, seed int64, base graph.VertexID) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var b graph.Builder
	b.ForceN = n
	b.SetBase(base)
	b.Grow(2 * n * k)
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			dst := (i + j) % n
			if n > 1 && rng.Float64() < beta { // one vertex has no other end
				dst = rng.Intn(n)
				for dst == i {
					dst = rng.Intn(n)
				}
			}
			b.AddEdge(base+graph.VertexID(i), base+graph.VertexID(dst))
			b.AddEdge(base+graph.VertexID(dst), base+graph.VertexID(i))
		}
	}
	return b.MustBuild()
}
