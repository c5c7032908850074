package algorithms

import (
	"math"

	"ipregel/internal/core"
	"ipregel/internal/graph"
)

// This file holds applications beyond the paper's three-app evaluation,
// exercising parts of the framework the paper leaves as extensions: the
// aggregator mechanism (PageRankConverged replaces the fixed 30-iteration
// schedule with a convergence test) and non-scalar message types
// (Reach64's bitmask messages).

// PageRankConvergedProgram runs PageRank until the summed absolute rank
// change of a superstep falls below tol, instead of the paper's fixed
// ROUND iterations (Fig. 6). It uses a sum aggregator: each vertex
// contributes |Δrank|; when the previous superstep's total is below tol,
// every vertex stops broadcasting and votes to halt, so the computation
// quiesces one superstep later. The program declares its "delta"
// aggregator, so checkpoints of it resume with the aggregator's state.
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func PageRankConvergedProgram(tol float64) core.Program[float64, float64] {
	return core.Program[float64, float64]{
		Combine:     core.Sum,
		Aggregators: []core.Aggregator{{Name: "delta", Op: core.AggSum}},
		Compute: func(ctx *core.Context[float64, float64], v core.Vertex[float64, float64]) {
			n := float64(ctx.VertexCount())
			val := v.Value()
			converged := false
			if ctx.IsFirstSuperstep() {
				*val = 1.0 / n
				ctx.Aggregate("delta", math.Inf(1))
			} else {
				sum := 0.0
				var m float64
				for ctx.NextMessage(v, &m) {
					sum += m
				}
				next := 0.15/n + 0.85*sum
				ctx.Aggregate("delta", math.Abs(next-*val))
				*val = next
				converged = ctx.Aggregated("delta") < tol
			}
			if converged {
				ctx.VoteToHalt(v)
				return
			}
			if d := v.OutDegree(); d > 0 {
				ctx.Broadcast(v, *val/float64(d))
			}
		},
	}
}

// PageRankConverged runs PageRank to numerical convergence and returns
// the ranks plus the number of damping iterations executed.
func PageRankConverged(g *graph.Graph, cfg core.Config, tol float64) ([]float64, core.Report, error) {
	e, rep, err := core.Run(g, cfg, PageRankConvergedProgram(tol))
	if err != nil {
		return nil, rep, err
	}
	return e.ValuesDense(), rep, nil
}

// Reach64Program propagates reachability from up to 64 seed vertices at
// once: the vertex value is a bitmask whose bit i is set when seed i
// reaches the vertex. Messages are bitmasks combined with OR — a
// commutative, associative combiner over a non-scalar payload. Every
// vertex votes to halt each superstep, so the program is compatible with
// the selection bypass, and it is broadcast-only, so it runs under the
// pull combiner too.
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func Reach64Program(seeds []graph.VertexID) core.Program[uint64, uint64] {
	seedBit := make(map[graph.VertexID]uint64, len(seeds))
	for i, s := range seeds {
		seedBit[s] |= 1 << uint(i)
	}
	return core.Program[uint64, uint64]{
		Combine: func(old *uint64, new uint64) { *old |= new },
		Compute: func(ctx *core.Context[uint64, uint64], v core.Vertex[uint64, uint64]) {
			val := v.Value()
			if ctx.IsFirstSuperstep() {
				if bits, ok := seedBit[v.ID()]; ok {
					*val = bits
					ctx.Broadcast(v, bits)
				}
			} else {
				var m uint64
				for ctx.NextMessage(v, &m) {
					if novel := m &^ *val; novel != 0 {
						*val |= novel
						ctx.Broadcast(v, *val)
					}
				}
			}
			ctx.VoteToHalt(v)
		},
	}
}

// Reach64 runs the multi-source reachability sketch; at most 64 seeds are
// supported (bit i of vertex j's result is set when seeds[i] reaches j).
func Reach64(g *graph.Graph, cfg core.Config, seeds []graph.VertexID) ([]uint64, core.Report, error) {
	if len(seeds) > 64 {
		seeds = seeds[:64]
	}
	e, rep, err := core.Run(g, cfg, Reach64Program(seeds))
	if err != nil {
		return nil, rep, err
	}
	return e.ValuesDense(), rep, nil
}

// WCC labels the weakly connected components of a (possibly directed)
// graph: Hashmin run on the symmetrized edge set, so labels flow against
// edge direction too. Each vertex's label is the smallest external
// identifier in its weak component.
func WCC(g *graph.Graph, cfg core.Config) ([]uint32, core.Report, error) {
	// Pull-direction supersteps (any Config.Direction that can pick pull)
	// collect from in-neighbours, so the symmetrized graph needs in-edges.
	sym := g.Symmetrize(cfg.Direction != core.DirectionPush)
	return Hashmin(sym, cfg)
}

// RefWCC is the union-find oracle for WCC.
func RefWCC(g *graph.Graph) []uint32 {
	n := g.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	g.Edges(func(s, d graph.VertexID) bool {
		rs, rd := find(int(s)), find(int(d))
		if rs != rd {
			if rs < rd {
				parent[rd] = rs
			} else {
				parent[rs] = rd
			}
		}
		return true
	})
	// Roots keep the minimum internal index (union by min above), so the
	// component label is the root's external identifier.
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(g.ExternalID(find(i)))
	}
	return out
}

// ApproxDiameter estimates the directed diameter (longest shortest path
// over reachable pairs) by running SSSP from `samples` sources spread
// across the identifier range and taking the maximum finite eccentricity.
// A lower bound on the true diameter — exact when a peripheral vertex is
// sampled (e.g. sampling a ring or grid corner). The graph-diameter /
// superstep-count connection is the paper's §7.2 density analysis: low
// density → high diameter → many supersteps.
func ApproxDiameter(g *graph.Graph, cfg core.Config, samples int) (uint32, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	if samples < 1 {
		samples = 1
	}
	if samples > n {
		samples = n
	}
	var best uint32
	for s := 0; s < samples; s++ {
		src := g.ExternalID(s * n / samples)
		dist, _, err := SSSP(g, cfg, src)
		if err != nil {
			return 0, err
		}
		for _, d := range dist {
			if d != Infinity && d > best {
				best = d
			}
		}
	}
	return best, nil
}

// RefReach64 computes the reachability oracle with one DFS per seed.
func RefReach64(g *graph.Graph, seeds []graph.VertexID) []uint64 {
	out := make([]uint64, g.N())
	for i, s := range seeds {
		if i >= 64 {
			break
		}
		start := int(s - g.Base())
		if start < 0 || start >= g.N() {
			continue
		}
		bit := uint64(1) << uint(i)
		stack := []int{start}
		out[start] |= bit
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.OutNeighbors(u) {
				if out[w]&bit == 0 {
					out[w] |= bit
					stack = append(stack, int(w))
				}
			}
		}
	}
	return out
}
