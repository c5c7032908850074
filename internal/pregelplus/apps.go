package pregelplus

import (
	"ipregel/internal/graph"
)

// The three evaluation applications (§7.1.4), written against the
// Pregel+ API exactly as a Pregel+ user would write them. They are
// semantically identical to the iPregel versions in internal/algorithms;
// the cross-framework tests assert result equality.

// InfinityU32 is the unreached marker (UINT_MAX in the paper's Fig. 5).
const InfinityU32 = ^uint32(0)

// PageRankProgram is the Fig. 6 PageRank for Pregel+.
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func PageRankProgram(rounds int) Program[float64, float64] {
	return Program[float64, float64]{
		Combine: func(old *float64, new float64) { *old += new },
		Compute: func(ctx *Context[float64, float64], v *Vertex[float64, float64]) {
			n := float64(ctx.NumVertices())
			if ctx.Superstep() == 0 {
				v.Value = 1.0 / n
			} else {
				sum := 0.0
				for _, m := range v.Messages() {
					sum += m
				}
				v.Value = 0.15/n + 0.85*sum
			}
			if ctx.Superstep() < rounds {
				if d := len(v.OutNeighbors()); d > 0 {
					ctx.Broadcast(v, v.Value/float64(d))
				}
			} else {
				ctx.VoteToHalt(v)
			}
		},
	}
}

// PageRank builds and runs a PageRank cluster, returning ranks in
// internal-index order.
func PageRank(g *graph.Graph, cfg ClusterConfig, rounds int) ([]float64, Report, error) {
	return run(g, cfg, PageRankProgram(rounds), Float64Codec{})
}

// HashminProgram is the minimum-label propagation for Pregel+.
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func HashminProgram() Program[uint32, uint32] {
	return Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) {
			if new < *old {
				*old = new
			}
		},
		Compute: func(ctx *Context[uint32, uint32], v *Vertex[uint32, uint32]) {
			if ctx.Superstep() == 0 {
				v.Value = uint32(v.ID)
				ctx.Broadcast(v, v.Value)
			} else {
				best := InfinityU32
				for _, m := range v.Messages() {
					if m < best {
						best = m
					}
				}
				if best < v.Value {
					v.Value = best
					ctx.Broadcast(v, best)
				}
			}
			ctx.VoteToHalt(v)
		},
	}
}

// Hashmin builds and runs a Hashmin cluster.
func Hashmin(g *graph.Graph, cfg ClusterConfig) ([]uint32, Report, error) {
	return run(g, cfg, HashminProgram(), Uint32Codec{})
}

// SSSPProgram is the Fig. 5 unit-weight SSSP for Pregel+.
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func SSSPProgram(source graph.VertexID) Program[uint32, uint32] {
	return Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) {
			if new < *old {
				*old = new
			}
		},
		Compute: func(ctx *Context[uint32, uint32], v *Vertex[uint32, uint32]) {
			if ctx.Superstep() == 0 {
				v.Value = InfinityU32
			}
			ref := InfinityU32
			if v.ID == source {
				ref = 0
			}
			for _, m := range v.Messages() {
				if m < ref {
					ref = m
				}
			}
			if ref < v.Value {
				v.Value = ref
				ctx.Broadcast(v, ref+1)
			}
			ctx.VoteToHalt(v)
		},
	}
}

// SSSP builds and runs an SSSP cluster.
func SSSP(g *graph.Graph, cfg ClusterConfig, source graph.VertexID) ([]uint32, Report, error) {
	return run(g, cfg, SSSPProgram(source), Uint32Codec{})
}

// run builds a cluster for prog and runs it, returning the values in
// internal-index order.
func run[V, M any](g *graph.Graph, cfg ClusterConfig, prog Program[V, M], codec Codec[M]) ([]V, Report, error) {
	cl, err := NewCluster(g, cfg, prog, codec)
	if err != nil {
		return nil, Report{}, err
	}
	rep, err := cl.Run()
	if err != nil {
		return nil, rep, err
	}
	return cl.ValuesDense(), rep, nil
}
