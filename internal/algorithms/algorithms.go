// Package algorithms implements the vertex-centric applications of the
// paper's evaluation — PageRank, Hashmin and SSSP (§7.1.4) — plus a BFS
// extra, each as a core.Program, together with independent sequential
// reference implementations used as test oracles.
//
// The three paper applications expose the three active-vertex evolutions
// the paper analyses: constantly all-active (PageRank), decreasing
// (Hashmin) and bell-shaped from a single source (SSSP). All three use
// broadcasts exclusively, so all are compatible with the pull combiner;
// only Hashmin and SSSP vote to halt every superstep and are therefore
// compatible with the selection bypass (§7.1.4).
package algorithms

import (
	"math"

	"ipregel/internal/core"
	"ipregel/internal/graph"
)

// Infinity is the unreached distance marker for SSSP/BFS, the paper's
// UINT_MAX.
const Infinity = math.MaxUint32

// PageRankProgram returns the paper's Fig. 6 PageRank: `rounds` damping
// iterations with d = 0.85, after which every vertex votes to halt.
// Vertices without out-neighbours simply do not broadcast (their rank mass
// is dropped, as in the paper's formulation).
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func PageRankProgram(rounds int) core.Program[float64, float64] {
	return core.Program[float64, float64]{
		Combine: core.Sum,
		Compute: func(ctx *core.Context[float64, float64], v core.Vertex[float64, float64]) {
			n := float64(ctx.VertexCount())
			val := v.Value()
			if ctx.IsFirstSuperstep() {
				*val = 1.0 / n
			} else {
				sum := 0.0
				var m float64
				for ctx.NextMessage(v, &m) {
					sum += m
				}
				*val = 0.15/n + 0.85*sum
			}
			if ctx.Superstep() < rounds {
				if d := v.OutDegree(); d > 0 {
					ctx.Broadcast(v, *val/float64(d))
				}
			} else {
				ctx.VoteToHalt(v)
			}
		},
	}
}

// PageRank runs the program on g and returns the rank of each vertex in
// internal-index order.
func PageRank(g *graph.Graph, cfg core.Config, rounds int) ([]float64, core.Report, error) {
	return values(core.Run(g, cfg, PageRankProgram(rounds)))
}

// HashminProgram returns the Hashmin connected-component labelling: every
// vertex starts with its own identifier as label, broadcasts it, and
// adopts (and re-broadcasts) any smaller label received. Every vertex
// votes to halt at every superstep, making the app compatible with the
// selection bypass.
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func HashminProgram() core.Program[uint32, uint32] {
	return core.Program[uint32, uint32]{
		Combine: core.Min,
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			val := v.Value()
			if ctx.IsFirstSuperstep() {
				*val = uint32(v.ID())
				ctx.Broadcast(v, *val)
			} else {
				best := uint32(Infinity)
				var m uint32
				for ctx.NextMessage(v, &m) {
					if m < best {
						best = m
					}
				}
				if best < *val {
					*val = best
					ctx.Broadcast(v, best)
				}
			}
			ctx.VoteToHalt(v)
		},
	}
}

// Hashmin runs the program on g and returns the component label of each
// vertex in internal-index order. On directed graphs the labels are the
// fixpoint of min-propagation along out-edges (run on a symmetric graph
// for weakly-connected components).
func Hashmin(g *graph.Graph, cfg core.Config) ([]uint32, core.Report, error) {
	return values(core.Run(g, cfg, HashminProgram()))
}

// SSSPProgram returns the paper's Fig. 5 single-source shortest path with
// unit edge weights: distances propagate as dist+1 broadcasts and every
// vertex votes to halt at every superstep.
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func SSSPProgram(source graph.VertexID) core.Program[uint32, uint32] {
	return core.Program[uint32, uint32]{
		Combine: core.Min,
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			val := v.Value()
			if ctx.IsFirstSuperstep() {
				*val = Infinity
			}
			ref := uint32(Infinity)
			if v.ID() == source {
				ref = 0
			}
			var m uint32
			for ctx.NextMessage(v, &m) {
				if m < ref {
					ref = m
				}
			}
			if ref < *val {
				*val = ref
				ctx.Broadcast(v, ref+1)
			}
			ctx.VoteToHalt(v)
		},
	}
}

// SSSP runs the program on g from source and returns the hop distance of
// each vertex in internal-index order (Infinity when unreachable).
func SSSP(g *graph.Graph, cfg core.Config, source graph.VertexID) ([]uint32, core.Report, error) {
	return values(core.Run(g, cfg, SSSPProgram(source)))
}

// values returns a finished engine's values in internal-index order, or
// the run's error.
func values[V, M any](e *core.Engine[V, M], rep core.Report, err error) ([]V, core.Report, error) {
	if err != nil {
		return nil, rep, err
	}
	return e.ValuesDense(), rep, nil
}

// BFSState is the per-vertex result of the BFS application.
type BFSState struct {
	// Parent is the smallest-identifier predecessor on a shortest path
	// from the source (Infinity at the source and for unreached
	// vertices).
	Parent uint32
	// Depth is the hop distance from the source (Infinity if unreached).
	Depth uint32
}

// BFSProgram returns a parent-recording breadth-first search: discovered
// vertices adopt the smallest identifier among the neighbours that
// reached them first. It votes to halt every superstep and uses
// broadcasts only, so it runs under every engine version.
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func BFSProgram(source graph.VertexID) core.Program[BFSState, uint32] {
	return core.Program[BFSState, uint32]{
		Combine: core.Min,
		Compute: func(ctx *core.Context[BFSState, uint32], v core.Vertex[BFSState, uint32]) {
			val := v.Value()
			if ctx.IsFirstSuperstep() {
				val.Parent = Infinity
				val.Depth = Infinity
				if v.ID() == source {
					val.Depth = 0
					ctx.Broadcast(v, uint32(v.ID()))
				}
				ctx.VoteToHalt(v)
				return
			}
			var m, best uint32 = 0, Infinity
			for ctx.NextMessage(v, &m) {
				if m < best {
					best = m
				}
			}
			if best != Infinity && val.Depth == Infinity {
				val.Parent = best
				val.Depth = uint32(ctx.Superstep())
				ctx.Broadcast(v, uint32(v.ID()))
			}
			ctx.VoteToHalt(v)
		},
	}
}

// BFS runs the program on g from source, returning per-vertex states in
// internal-index order.
func BFS(g *graph.Graph, cfg core.Config, source graph.VertexID) ([]BFSState, core.Report, error) {
	return values(core.Run(g, cfg, BFSProgram(source)))
}
