package algorithms

import (
	"container/heap"
	"fmt"

	"ipregel/internal/core"
	"ipregel/internal/graph"
)

// Weighted single-source shortest paths. The paper's SSSP assumes unit
// weights (§4 footnote 1), but its USA-road input ships real distances;
// this extension runs Bellman-Ford-style relaxation over weighted edges.
// Unlike the three paper applications it sends per-edge *distinct*
// messages, so it is the one workload that genuinely requires
// IP_send_message and is incompatible with the pull combiner's
// broadcast-only contract — a useful negative case for the multi-version
// design. It votes to halt every superstep, so the selection bypass
// applies.

// WeightedSSSPProgram relaxes weighted out-edges from source.
//
// Not inlined: a Compute copy compiled into a caller calls every Context method.
//
//go:noinline
func WeightedSSSPProgram(source graph.VertexID) core.Program[uint32, uint32] {
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
				v.OutEdgesWeighted(func(dst graph.VertexID, w uint32) {
					if d := uint64(ref) + uint64(w); d < Infinity {
						ctx.Send(dst, uint32(d))
					}
				})
			}
			ctx.VoteToHalt(v)
		},
	}
}

// WeightedSSSP runs weighted shortest paths; cfg must push every
// superstep (Direction push).
func WeightedSSSP(g *graph.Graph, cfg core.Config, source graph.VertexID) ([]uint32, core.Report, error) {
	if !g.HasWeights() {
		return nil, core.Report{}, graph.ErrNoWeights
	}
	if cfg.Direction != core.DirectionPush {
		return nil, core.Report{}, fmt.Errorf("algorithms: weighted SSSP sends per-edge messages and cannot use the pull transport (direction %v; paper §6.2's broadcast-only contract)", cfg.Direction)
	}
	e, rep, err := core.Run(g, cfg, WeightedSSSPProgram(source))
	if err != nil {
		return nil, rep, err
	}
	return e.ValuesDense(), rep, nil
}

// RefWeightedSSSP is the Dijkstra oracle (binary heap).
func RefWeightedSSSP(g *graph.Graph, source graph.VertexID) []uint32 {
	n := g.N()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = Infinity
	}
	s := int(source - g.Base())
	if s < 0 || s >= n {
		return dist
	}
	dist[s] = 0
	pq := &distHeap{{v: s, d: 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(distEntry)
		if top.d > dist[top.v] {
			continue // stale entry
		}
		adj, ws := g.OutEdgesWeighted(top.v)
		for j, nb := range adj {
			nd := uint64(top.d) + uint64(ws[j])
			if nd < uint64(dist[nb]) {
				dist[nb] = uint32(nd)
				heap.Push(pq, distEntry{v: int(nb), d: uint32(nd)})
			}
		}
	}
	return dist
}

type distEntry struct {
	v int
	d uint32
}

type distHeap []distEntry

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
