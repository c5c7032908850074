package pregelplus

import (
	"time"
	"unsafe"

	"ipregel/internal/graph"
)

// Vertex is a Pregel+ vertex: a separately allocated object holding the
// user value, a dynamically resizable inbox queue and its own adjacency —
// the representation whose per-vertex overheads (§3.2, §6.3, §7.4.4) the
// paper's iPregel design removes.
type Vertex[V, M any] struct {
	// ID is the vertex's external identifier.
	ID graph.VertexID
	// Value is the user state.
	Value V

	active   bool
	inbox    []M
	outEdges []graph.VertexID
}

// Messages returns the messages received at the start of the current
// superstep. The slice is owned by the framework and valid during Compute
// only.
func (v *Vertex[V, M]) Messages() []M { return v.inbox }

// OutNeighbors returns the external identifiers of the out-neighbours.
func (v *Vertex[V, M]) OutNeighbors() []graph.VertexID { return v.outEdges }

// Context exposes the framework calls available during Compute.
type Context[V, M any] struct {
	cl *Cluster[V, M]
	w  *worker[V, M]
}

// Superstep returns the current superstep number, starting at 0.
func (c *Context[V, M]) Superstep() int { return c.cl.superstep }

// NumVertices returns the global vertex count.
func (c *Context[V, M]) NumVertices() int { return c.cl.totalVertices }

// Broadcast sends msg to every out-neighbour of v: one wrapped message
// per neighbour is buffered.
func (c *Context[V, M]) Broadcast(v *Vertex[V, M], msg M) {
	for _, nb := range v.outEdges {
		c.w.send(nb, msg)
	}
}

// VoteToHalt deactivates v until a message arrives.
func (c *Context[V, M]) VoteToHalt(v *Vertex[V, M]) {
	if v.active {
		v.active = false
		c.w.votes++
	}
}

// worker is one simulated MPI process: a partition of boxed vertices
// behind a hash map, plus per-destination send buffers.
type worker[V, M any] struct {
	id   int
	node int
	cl   *Cluster[V, M]

	verts map[graph.VertexID]*Vertex[V, M]
	order []graph.VertexID

	ctx Context[V, M]

	// send state, one entry per destination worker
	rawOut  [][]byte               // wire-format buffers (no combiner)
	combOut []map[graph.VertexID]M // combiner mode: per-recipient fold

	ran, votes int64
	msgsSent   uint64
}

func newWorker[V, M any](cl *Cluster[V, M], id int) *worker[V, M] {
	w := &worker[V, M]{
		id:    id,
		node:  id / cl.procsPerNode,
		cl:    cl,
		verts: make(map[graph.VertexID]*Vertex[V, M]),
	}
	w.ctx = Context[V, M]{cl: cl, w: w}
	W := cl.workerCount
	if cl.combine == nil {
		w.rawOut = make([][]byte, W)
	} else {
		w.combOut = make([]map[graph.VertexID]M, W)
		for i := range w.combOut {
			w.combOut[i] = make(map[graph.VertexID]M)
		}
	}
	return w
}

func (w *worker[V, M]) addVertex(v *Vertex[V, M]) {
	w.verts[v.ID] = v
	w.order = append(w.order, v.ID)
}

// send wraps and buffers one message.
func (w *worker[V, M]) send(dst graph.VertexID, msg M) {
	dw := w.cl.ownerOf(dst)
	if w.cl.combine != nil {
		buf := w.combOut[dw]
		if old, ok := buf[dst]; ok {
			w.cl.combine(&old, msg)
			buf[dst] = old
		} else {
			buf[dst] = msg
		}
		return
	}
	// wire format: 4-byte recipient id + payload
	sz := w.cl.codec.Size()
	b := w.rawOut[dw]
	off := len(b)
	b = append(b, make([]byte, wrapIDBytes+sz)...)
	putUint32(b[off:], uint32(dst))
	w.cl.codec.Encode(b[off+wrapIDBytes:], msg)
	w.rawOut[dw] = b
	w.msgsSent++
}

// computePhase runs the superstep's user code over this partition and
// serialises the send buffers, returning the measured duration — the real
// cost of hash-partitioned, queue-based, serialising vertex processing.
func (w *worker[V, M]) computePhase(first bool) time.Duration {
	start := time.Now()
	compute := w.cl.prog.Compute
	for _, id := range w.order {
		v := w.verts[id]
		if first || v.active || len(v.inbox) > 0 {
			v.active = true
			w.ran++
			compute(&w.ctx, v)
			v.inbox = v.inbox[:0]
		}
	}
	if w.cl.combine != nil {
		w.serializeCombined()
	}
	return time.Since(start)
}

// serializeCombined flushes the combiner maps into wire buffers.
func (w *worker[V, M]) serializeCombined() {
	sz := w.cl.codec.Size()
	if w.rawOut == nil {
		w.rawOut = make([][]byte, w.cl.workerCount)
	}
	for dw, m := range w.combOut {
		if len(m) == 0 {
			continue
		}
		b := w.rawOut[dw][:0]
		for dst, msg := range m {
			off := len(b)
			b = append(b, make([]byte, wrapIDBytes+sz)...)
			putUint32(b[off:], uint32(dst))
			w.cl.codec.Encode(b[off+wrapIDBytes:], msg)
			w.msgsSent++
		}
		w.rawOut[dw] = b
		clear(m)
	}
}

// deliverPhase decodes the wire buffers addressed to this worker and
// appends each message to its recipient's inbox through the hash map —
// the per-message addressing cost iPregel's identifier-as-location design
// avoids (§5). Returns measured duration and the number of messages
// delivered.
func (w *worker[V, M]) deliverPhase(incoming [][]byte) (time.Duration, uint64) {
	start := time.Now()
	var delivered uint64
	sz := w.cl.codec.Size()
	rec := wrapIDBytes + sz
	for _, buf := range incoming {
		for off := 0; off+rec <= len(buf); off += rec {
			dst := graph.VertexID(getUint32(buf[off:]))
			msg := w.cl.codec.Decode(buf[off+wrapIDBytes:])
			v, ok := w.verts[dst]
			if !ok {
				continue // unknown recipient: dropped, as real systems log-and-drop
			}
			v.inbox = append(v.inbox, msg)
			delivered++
		}
	}
	return time.Since(start), delivered
}

// resetSendBuffers prepares for the next superstep, keeping capacity.
func (w *worker[V, M]) resetSendBuffers() {
	for i := range w.rawOut {
		w.rawOut[i] = w.rawOut[i][:0]
	}
	w.ran, w.votes, w.msgsSent = 0, 0, 0
}

// memoryBytes is the analytic footprint of this worker's framework
// structures right now: boxed vertices, hash-map entries, adjacency,
// inbox capacity and send buffers. Constants document the estimate; see
// internal/memmodel for the full projection including per-process
// environment duplication.
func (w *worker[V, M]) memoryBytes() uint64 {
	var v Vertex[V, M]
	var m M
	vertexBytes := uint64(unsafe.Sizeof(v)) + allocHeaderBytes
	const mapEntryBytes = 48 // measured Go map overhead per entry, approx.
	msgBytes := uint64(unsafe.Sizeof(m))

	total := uint64(len(w.verts)) * (vertexBytes + mapEntryBytes)
	total += uint64(len(w.order)) * 4
	for _, id := range w.order {
		vx := w.verts[id]
		total += uint64(cap(vx.outEdges))*4 + allocHeaderBytes
		total += uint64(cap(vx.inbox)) * msgBytes
		if cap(vx.inbox) > 0 {
			total += allocHeaderBytes
		}
	}
	for _, b := range w.rawOut {
		total += uint64(cap(b))
	}
	for _, m := range w.combOut {
		total += uint64(len(m)) * (mapEntryBytes + msgBytes)
	}
	return total
}

const allocHeaderBytes = 16

func putUint32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
