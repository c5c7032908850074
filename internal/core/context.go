package core

import (
	"fmt"

	"ipregel/internal/graph"
)

// ComputeFunc is the user-defined per-vertex kernel (paper Fig. 4,
// IP_compute), invoked once per active vertex per superstep.
type ComputeFunc[V, M any] func(ctx *Context[V, M], v Vertex[V, M])

// Vertex is a handle on one vertex's state, passed to ComputeFunc. It is
// a cheap value (a pointer and a slot); the actual state lives in the
// engine's flat arrays, the Go equivalent of the paper's plain-struct
// vertices with no hidden virtual-table pointer (§3.2).
type Vertex[V, M any] struct {
	e    *Engine[V, M]
	slot int32
}

// ID returns the vertex's external identifier, base + slot (§5).
func (v Vertex[V, M]) ID() graph.VertexID { return v.e.g.ExternalID(int(v.slot)) }

// Value returns a pointer to the vertex's user-defined value, the
// equivalent of the user members of struct IP_vertex_t.
func (v Vertex[V, M]) Value() *V { return &v.e.values[v.slot] }

// OutDegree returns the number of out-neighbours.
func (v Vertex[V, M]) OutDegree() int { return v.e.g.OutDegree(int(v.slot)) }

// InDegree returns the number of in-neighbours; it panics if the graph
// was loaded without in-edges (paper §3.2: in-neighbour storage is a
// per-version decision).
func (v Vertex[V, M]) InDegree() int { return v.e.g.InDegree(int(v.slot)) }

// OutNeighborIDs calls fn with the external identifier of every
// out-neighbour. It goes through the backend-agnostic iterator path so
// it works on flat and compressed graphs alike.
func (v Vertex[V, M]) OutNeighborIDs(fn func(graph.VertexID)) {
	e := v.e
	base := e.g.Base()
	e.g.ForEachOutNeighbor(int(v.slot), func(nb graph.VertexID) {
		fn(base + nb)
	})
}

// OutEdgesWeighted calls fn with each out-neighbour's external identifier
// and edge weight. It panics with graph.ErrNoWeights on unweighted
// graphs; weighted applications (e.g. weighted SSSP) require a graph
// built with graph.WeightedBuilder.
func (v Vertex[V, M]) OutEdgesWeighted(fn func(graph.VertexID, uint32)) {
	e := v.e
	base := e.g.Base()
	e.g.ForEachOutEdgeWeighted(int(v.slot), func(nb graph.VertexID, w uint32) {
		fn(base+nb, w)
	})
}

// Context carries the framework calls of paper Fig. 3 plus this worker's
// superstep-local buffers. Each worker goroutine owns one Context; the
// version-independent calls (Superstep, VertexCount, ...) read engine
// state, while Send/Broadcast dispatch into the configured combination
// module version.
type Context[V, M any] struct {
	e      *Engine[V, M]
	worker int

	// per-superstep counters, merged at the barrier
	msgs  uint64
	ran   int64
	votes int64

	// enrolled holds the slots this worker enrolled in the next frontier
	// (selection bypass, §4), concatenated by gatherFrontier. New sizes it
	// to the push list cap (FrontierListCap); pull supersteps may grow it.
	enrolled []int32

	// drained and halted are the running vertex's markers, reset by
	// runVertex: its mail was read (NextMessage), it voted to halt.
	drained, halted bool
	// awake is the first slot this worker saw left awake this superstep
	// under selection bypass, -1 while none was (bypassViolation).
	awake int32

	// nbuf is this worker's decode buffer for the compressed graph
	// backend: the scatter loop and the pull collect phase decode
	// neighbour lists into it instead of sharing a CSR slice. On the
	// flat backend it is never touched (the shared-slice fast path).
	// sendBuf is Send's list of one: a local array would escape through
	// the inbox's scatter dispatch, one allocation per message. acc is
	// collectSlot's fold: a local would escape through Combine.
	nbuf    graph.NeighborBuf
	sendBuf [1]graph.VertexID
	acc     M

	// pullEdges is the out-degree sum of the vertices whose pull flag this
	// worker set this superstep; collectPull reads and zeroes it.
	pullEdges uint64
}

// Superstep returns the current superstep number, starting at 0
// (IP_get_superstep).
func (c *Context[V, M]) Superstep() int { return c.e.superstep }

// IsFirstSuperstep reports whether this is superstep 0
// (IP_is_first_superstep).
func (c *Context[V, M]) IsFirstSuperstep() bool { return c.e.superstep == 0 }

// VertexCount returns the total number of vertices
// (IP_get_vertices_count).
func (c *Context[V, M]) VertexCount() int { return c.e.g.N() }

// NextMessage pops the message in v's mailbox into *m, reporting whether
// one existed (IP_get_next_message). With combiners a mailbox holds at
// most one message (§6.3), so the usual `for ctx.NextMessage(v, &m)` drain
// loop iterates at most once: the second call sees the drained marker.
func (c *Context[V, M]) NextMessage(v Vertex[V, M], m *M) bool {
	if c.drained {
		return false
	}
	c.drained = true
	return v.e.buf.take(int(v.slot), m)
}

// Send delivers msg to the vertex with external identifier dst
// (IP_send_message). It is unavailable on pull-direction supersteps
// (Config.Direction pull, and the pull steps of adaptive runs), whose
// contract is broadcast-only communication
// (§6.2) — an adaptive run must therefore be broadcast-only throughout,
// or its push and pull supersteps would not be equivalent.
func (c *Context[V, M]) Send(dst graph.VertexID, msg M) {
	e := c.e
	if e.curDir == DirectionPull {
		panic("core: IP_send_message is not available on a pull-direction superstep (Config.Direction pull or adaptive); pull transport is broadcast-only (§6.2)")
	}
	// Offset mapping (§5): slot = dst − base, and an id below base wraps
	// past N, so one unsigned compare rejects both sides of the range.
	slot := dst - e.g.Base()
	if uint(slot) >= uint(e.g.N()) {
		panic(fmt.Sprintf("core: message sent to unknown vertex %d", dst))
	}
	c.sendBuf[0] = slot
	c.scatter(c.sendBuf[:], msg)
}

// scatter is the one push delivery routine — a Broadcast's fan-out and
// a Send (a scatter of one) alike: msg goes to slot nb for every nb, in
// the mailbox version's own loop (one dispatch per call, the way
// the paper's module versions are decided once per build, §3.1.1), which
// under selection bypass also enrols each slot it fills in the next
// frontier; without bypass no enrol buffer is carried in or out.
func (c *Context[V, M]) scatter(nbs []graph.VertexID, msg M) {
	c.msgs += uint64(len(nbs))
	if !c.e.cfg.SelectionBypass {
		c.e.mb.scatter(nbs, msg, nil)
		return
	}
	c.enrolled = c.e.mb.scatter(nbs, msg, c.enrolled)
}

// Broadcast sends msg to every out-neighbour of v (IP_broadcast). On a
// push superstep it is one scatter over the out-neighbour list; on a
// pull superstep it buffers msg once in v's outbox, to be fetched by the
// recipients' collect phase.
func (c *Context[V, M]) Broadcast(v Vertex[V, M], msg M) {
	e := c.e
	slot := int(v.slot)
	if e.curDir == DirectionPull {
		// Buffer once in the vertex-owned outbox slot; each out-neighbour's
		// collect folds it into its own inbox. Messages counts the logical
		// fan-out, so push, pull and adaptive runs of the same program stay
		// Fingerprint-comparable — and the collect's audit counts conserve
		// it exactly.
		d := e.g.OutDegree(slot)
		c.msgs += uint64(d)
		if e.pullFlag[slot] != 0 {
			// A repeat broadcast combines into the entry, as a push one
			// combines into every recipient's inbox: its d deliveries are
			// combines, and it adds no edges and enrols nobody.
			e.prog.Combine(&e.pullOut[slot], msg)
			e.buf.count(d, 0)
			return
		}
		e.pullOut[slot] = msg
		e.pullFlag[slot] = 1
		c.pullEdges += uint64(d)
		if e.cfg.SelectionBypass {
			// No deposit exists yet to enrol the out-neighbours (§4 on the
			// broadcast version): each is enrolled once, by whichever
			// broadcaster wins the test-and-CAS on its pullEnrol flag.
			for _, nb := range e.g.OutNeighborsWith(&c.nbuf, slot) {
				flag := &e.pullEnrol[nb]
				if flag.Load() == 0 && flag.CompareAndSwap(0, 1) {
					c.enrolled = append(c.enrolled, int32(nb))
				}
			}
		}
		return
	}
	c.scatter(e.g.OutNeighborsWith(&c.nbuf, slot), msg)
}

// VoteToHalt marks v inactive for the next superstep (IP_vote_to_halt);
// an incoming message will reactivate it. The worker counts the run's
// first vote, and the scan that ran v clears its activity bit
// (runWords). Under selection bypass a vertex runs only on mail and must
// halt every time (§4), so no activity is kept there.
func (c *Context[V, M]) VoteToHalt(v Vertex[V, M]) {
	if !c.halted {
		c.halted = true
		c.votes++
	}
}

// noteAwake records slot as left awake under selection bypass, if it is
// the worker's first this superstep.
func (c *Context[V, M]) noteAwake(slot int32) {
	if c.awake < 0 {
		c.awake = slot
	}
}

func (c *Context[V, M]) resetSuperstep() {
	c.msgs, c.ran, c.votes, c.awake = 0, 0, 0, -1
	c.enrolled = c.enrolled[:0]
}
