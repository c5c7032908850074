package algorithms

import (
	"fmt"

	"ipregel/internal/core"
	"ipregel/internal/graph"
)

// Strongly connected components, vertex-centric style: the coloring /
// forward-backward algorithm (Orzan 2004; the standard Pregel-family SCC
// formulation). It composes multiple engine runs — exactly the usage
// pattern the iPregel API is meant to support for applications richer
// than single-program kernels:
//
//  1. trim: vertices with no unassigned in- or out-neighbours are
//     singleton SCCs (host-side loop);
//  2. colour: propagate the maximum unassigned identifier forward, so
//     every vertex learns the largest id that reaches it (one engine run
//     per round, min-combiner over negated ids);
//  3. backward: from each colour root, propagate membership backwards
//     along the transpose restricted to equal colour; every vertex
//     reached belongs to the root's SCC (second engine run);
//  4. repeat on the remaining unassigned vertices.
//
// Labels are the *root* identifier chosen by the colouring (the largest
// id in each SCC).

// SCC computes strongly connected components; the result maps each
// internal index to the largest external identifier in its component.
// cfg selects the engine version used for the propagation runs; the pull
// combiner is supported (the graph must carry in-edges either way, since
// the backward phase runs on the transpose).
func SCC(g *graph.Graph, cfg core.Config) ([]uint32, error) {
	n := g.N()
	labels := make([]uint32, n)
	if n == 0 {
		return labels, nil
	}
	if !g.HasInEdges() {
		g = g.WithInEdges()
	}
	tr := g.Transpose()

	const unassigned = ^uint32(0)
	for i := range labels {
		labels[i] = unassigned
	}
	assigned := func(i int) bool { return labels[i] != unassigned }
	remaining := n

	// trim removes trivial SCCs: vertices whose unassigned in- or
	// out-neighbourhood is empty cannot lie on a cycle with unassigned
	// vertices. The neighbour walks go through the backend-agnostic
	// iterator buffers so trimming works on compressed and mmap graphs
	// too (two buffers: the in-walk must survive the nested out-walk).
	var inBuf, outBuf graph.NeighborBuf
	trim := func() {
		for changed := true; changed; {
			changed = false
			for i := 0; i < n; i++ {
				if assigned(i) {
					continue
				}
				liveIn, liveOut := false, false
				for _, u := range g.InNeighborsWith(&inBuf, i) {
					if !assigned(int(u)) && int(u) != i {
						liveIn = true
						break
					}
				}
				if liveIn {
					for _, u := range g.OutNeighborsWith(&outBuf, i) {
						if !assigned(int(u)) && int(u) != i {
							liveOut = true
							break
						}
					}
				}
				if !liveIn || !liveOut {
					labels[i] = uint32(g.ExternalID(i))
					remaining--
					changed = true
				}
			}
		}
	}

	for trim(); remaining > 0; trim() {
		colors, err := maxForward(g, cfg, labels)
		if err != nil {
			return nil, err
		}
		member, err := backwardReach(tr, cfg, labels, colors)
		if err != nil {
			return nil, err
		}
		assignedThisRound := 0
		for i := 0; i < n; i++ {
			if !assigned(i) && member[i] != 0 {
				labels[i] = colors[i]
				remaining--
				assignedThisRound++
			}
		}
		if assignedThisRound == 0 {
			return nil, fmt.Errorf("algorithms: SCC made no progress with %d vertices unassigned", remaining)
		}
	}
	return labels, nil
}

// maxForward propagates the maximum unassigned identifier along
// out-edges within the unassigned subgraph. Implemented as min-propagation
// over bit-negated identifiers so the shared core.Min applies.
func maxForward(g *graph.Graph, cfg core.Config, labels []uint32) ([]uint32, error) {
	const unassigned = ^uint32(0)
	base := g.Base()
	prog := core.Program[uint32, uint32]{
		Combine: core.Min,
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			idx := int(v.ID() - base)
			val := v.Value()
			if ctx.IsFirstSuperstep() {
				if labels[idx] != unassigned {
					*val = ^uint32(0) // inert: assigned vertices neither hold nor forward colours
					ctx.VoteToHalt(v)
					return
				}
				*val = ^uint32(v.ID())
				ctx.Broadcast(v, *val)
				ctx.VoteToHalt(v)
				return
			}
			if labels[idx] != unassigned {
				ctx.VoteToHalt(v)
				return
			}
			improved := false
			var m uint32
			for ctx.NextMessage(v, &m) {
				if m < *val {
					*val = m
					improved = true
				}
			}
			if improved {
				ctx.Broadcast(v, *val)
			}
			ctx.VoteToHalt(v)
		},
	}
	e, _, err := core.Run(g, cfg, prog)
	if err != nil {
		return nil, err
	}
	dense := e.ValuesDense()
	for i := range dense {
		dense[i] = ^dense[i] // back to max-id colours
	}
	return dense, nil
}

// backwardReach marks, on the transpose, every unassigned vertex that
// reaches its colour's root through vertices of the same colour. The
// root of colour c is the vertex with external identifier c.
func backwardReach(tr *graph.Graph, cfg core.Config, labels, colors []uint32) ([]uint8, error) {
	const unassigned = ^uint32(0)
	base := tr.Base()
	n := tr.N()
	member := make([]uint8, n)
	prog := core.Program[uint32, uint32]{
		Combine: core.Min,
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			idx := int(v.ID() - base)
			if labels[idx] != unassigned {
				ctx.VoteToHalt(v)
				return
			}
			if ctx.IsFirstSuperstep() {
				if colors[idx] == uint32(v.ID()) { // colour root
					member[idx] = 1
					*v.Value() = 1
					ctx.Broadcast(v, colors[idx])
				}
				ctx.VoteToHalt(v)
				return
			}
			var m uint32
			got := false
			for ctx.NextMessage(v, &m) {
				if m == colors[idx] {
					got = true
				}
			}
			if got && member[idx] == 0 {
				member[idx] = 1
				ctx.Broadcast(v, colors[idx])
			}
			ctx.VoteToHalt(v)
		},
	}
	if _, _, err := core.Run(tr, cfg, prog); err != nil {
		return nil, err
	}
	return member, nil
}

// RefSCC is the Tarjan oracle (iterative, stack-safe), labelling each
// vertex with the largest external identifier of its component to match
// SCC's convention.
func RefSCC(g *graph.Graph) []uint32 {
	n := g.N()
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int32
	var next int32
	var nComp int32

	type frame struct {
		v  int32
		ei int
	}
	var call []frame
	// The adjacency is re-fetched into nbuf at the top of every loop
	// resumption and never held across a frame push, so one shared buffer
	// suffices — and the oracle runs on compressed graphs too.
	var nbuf graph.NeighborBuf
	for s := 0; s < n; s++ {
		if index[s] != -1 {
			continue
		}
		call = append(call[:0], frame{v: int32(s)})
		index[s] = next
		low[s] = next
		next++
		stack = append(stack, int32(s))
		onStack[s] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			adj := g.OutNeighborsWith(&nbuf, int(f.v))
			advanced := false
			for f.ei < len(adj) {
				w := int32(adj[f.ei])
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// finish f.v
			if low[f.v] == index[f.v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == f.v {
						break
					}
				}
				nComp++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[f.v] < low[p] {
					low[p] = low[f.v]
				}
			}
		}
	}
	// Label every component by its maximum external identifier.
	maxID := make([]uint32, nComp)
	for i := 0; i < n; i++ {
		id := uint32(g.ExternalID(i))
		if id > maxID[comp[i]] {
			maxID[comp[i]] = id
		}
	}
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		out[i] = maxID[comp[i]]
	}
	return out
}
