// Package pregelplus is a from-scratch reimplementation of the paper's
// comparator: Pregel+ (Yan et al., WWW'15), the state-of-the-art
// in-memory *distributed-memory* vertex-centric framework the paper
// benchmarks iPregel against (§7.3).
//
// Everything the paper's memory and runtime analysis attributes to the
// distributed design is really implemented here, not modelled:
//
//   - vertices are hash-partitioned across W = nodes × procs workers and
//     addressed through a per-worker hash map (the conventional addressing
//     iPregel replaces, §5);
//   - each vertex is a separately allocated, pointer-boxed object with a
//     dynamically resizable inbox queue (the structures iPregel's
//     single-message mailboxes eliminate, §6.3);
//   - outgoing messages are wrapped with their recipient's identifier and
//     serialised into per-destination send buffers with encoding/binary,
//     then deserialised at the receiver (§7.4.4's "heavier messages" and
//     "sending and receiving buffers");
//   - an optional sender-side combiner reduces wire volume, as in the real
//     Pregel+.
//
// Only the cluster hardware is simulated, because no 16-node cluster
// exists in this environment: workers execute their (real) compute work
// sequentially and are timed individually, and a simulated clock charges
// max-over-workers compute time plus a network cost model calibrated to
// the paper's EC2 m4.large instances (450 Mbit/s, §7.1.1). See
// cluster.go and netmodel.go.
package pregelplus

import (
	"encoding/binary"
	"math"
	"time"
)

// Codec serialises fixed-size message payloads onto the wire. Pregel+
// messages travel between processes, so payloads must have a defined
// binary encoding.
type Codec[M any] interface {
	// Size returns the encoded size in bytes.
	Size() int
	// Encode writes m into buf[:Size()].
	Encode(buf []byte, m M)
	// Decode reads a payload from buf[:Size()].
	Decode(buf []byte) M
}

// Uint32Codec encodes uint32 payloads (Hashmin labels, SSSP distances).
type Uint32Codec struct{}

func (Uint32Codec) Size() int                   { return 4 }
func (Uint32Codec) Encode(buf []byte, m uint32) { binary.LittleEndian.PutUint32(buf, m) }
func (Uint32Codec) Decode(buf []byte) uint32    { return binary.LittleEndian.Uint32(buf) }

// Float64Codec encodes float64 payloads (PageRank contributions).
type Float64Codec struct{}

func (Float64Codec) Size() int { return 8 }
func (Float64Codec) Encode(buf []byte, m float64) {
	binary.LittleEndian.PutUint64(buf, math.Float64bits(m))
}
func (Float64Codec) Decode(buf []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf))
}

// wrapped message wire format: 4-byte recipient identifier + payload.
const wrapIDBytes = 4

// ClusterConfig sizes the simulated deployment.
type ClusterConfig struct {
	// Nodes is the number of simulated machines (the paper sweeps 1–16).
	Nodes int
	// ProcsPerNode is the number of worker processes per machine; the
	// paper runs 2 MPI processes on the 2-core m4.large (§7.1.1).
	ProcsPerNode int
	// Net is the network cost model; DefaultNet() if zero.
	Net NetModel
	// MaxSupersteps aborts runaway programs; 0 means no limit.
	MaxSupersteps int
	// DisableCombiner turns off sender-side combining, so every message
	// travels wrapped and uncombined (wire volume and inbox growth then
	// scale with the edge count).
	DisableCombiner bool
}

func (c ClusterConfig) workers() int {
	p := c.ProcsPerNode
	if p <= 0 {
		p = 2
	}
	n := c.Nodes
	if n <= 0 {
		n = 1
	}
	return n * p
}

func (c ClusterConfig) nodes() int {
	if c.Nodes <= 0 {
		return 1
	}
	return c.Nodes
}

// Program is the user code of a Pregel+ application.
type Program[V, M any] struct {
	// Compute is called on each active vertex every superstep.
	Compute func(ctx *Context[V, M], v *Vertex[V, M])
	// Combine merges messages addressed to the same recipient inside the
	// send buffers (sender-side combining, as in Pregel+). Required
	// unless ClusterConfig.DisableCombiner is set.
	Combine func(old *M, new M)
}

// Report summarises a cluster run. SimTime is the simulated wall-clock of
// the deployment — max-over-workers compute per superstep plus modelled
// network time — which is what Fig. 8 plots against the node count.
type Report struct {
	Supersteps int
	// SimTime = ComputeTime + NetTime.
	SimTime time.Duration
	// ComputeTime accumulates max-over-workers measured compute (including
	// serialisation and delivery) per superstep.
	ComputeTime time.Duration
	// NetTime accumulates the modelled transfer and synchronisation time.
	NetTime time.Duration
	// WireBytes is the total inter-node traffic (intra-node exchanges are
	// free of network cost but still pay serialisation compute).
	WireBytes uint64
	// Messages counts all wrapped messages exchanged (post-combining).
	Messages uint64
	// PeakMemoryBytes is the framework's analytic peak footprint across
	// all workers: partitions, hash maps, inbox queues and send/receive
	// buffers (see memoryBytes in cluster.go).
	PeakMemoryBytes uint64
	Converged       bool
	// Steps holds per-superstep statistics.
	Steps []StepStats
}

// StepStats records one superstep of the simulated deployment.
type StepStats struct {
	// Compute is the max-over-workers measured compute+delivery time.
	Compute time.Duration
	// Net is the modelled transfer + barrier time.
	Net time.Duration
	// WireBytes is this superstep's inter-node traffic.
	WireBytes uint64
	// Messages counts wrapped messages sent (post-combining).
	Messages uint64
	// Active is the number of vertices still active after the superstep.
	Active int64
}
