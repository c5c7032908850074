// Package memmodel provides the memory-footprint machinery of the
// paper's §7.4 evaluation:
//
//   - a runtime peak-heap sampler standing in for `time -v`'s maximum
//     resident set size (§7.1.2) — this reproduction measures the Go
//     heap, the moral equivalent for a garbage-collected runtime;
//   - the "graph binary size" separating the graph itself from framework
//     overhead (§7.4.2);
//   - analytic byte models for iPregel (derived from this repository's
//     actual array layouts), Pregel+ and Giraph (calibrated to the
//     numbers reported in the paper and its reference [20]), used for the
//     full-scale projections of §7.4.3 that no laptop can measure
//     directly.
package memmodel

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ipregel/internal/core"
	"ipregel/internal/graph"
)

// MeasurePeakHeap runs fn while sampling runtime.MemStats.HeapAlloc and
// returns the observed peak and the pre-run baseline, both in bytes.
// Sampling every 200µs bounds how short-lived a spike can hide, which is
// the same limitation `time -v`'s RSS sampling has.
func MeasurePeakHeap(fn func()) (peak, baseline uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline = ms.HeapAlloc
	peak = baseline

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(200 * time.Microsecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				if s.HeapAlloc > peak {
					peak = s.HeapAlloc
				}
			}
		}
	}()
	fn()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	close(done)
	wg.Wait()
	if end.HeapAlloc > peak {
		peak = end.HeapAlloc
	}
	return peak, baseline
}

// GraphBinaryBytes is the paper's "binary size" of a graph (§7.4.2):
// each vertex stores its identifier plus those of its out-neighbours, at
// 4 bytes per identifier. For the Twitter graph this evaluates to ≈8 GB,
// matching the paper's calculation.
func GraphBinaryBytes(v, e uint64) uint64 { return 4*v + 4*e }

// CSRBytes is this repository's in-memory CSR cost for one direction:
// 4-byte offsets per vertex (+1) plus 4-byte adjacency per edge — the
// paper's binary size plus one offset.
func CSRBytes(v, e uint64) uint64 { return 4*(v+1) + 4*e }

// CompressedCSRBytes is the in-memory cost of one block-compressed
// adjacency direction (internal/graph's delta+varint blocks): a 4-byte
// degree per vertex, two 8-byte block tables with one entry per
// 64-vertex block (+1), and the varint stream itself, whose length is
// graph-dependent (dataLen; obtain it from the measured
// Graph.MemoryBytes or a CompressedParts view). For dataLen below
// 4 bytes/edge less a quarter byte per vertex this undercuts the flat
// CSRBytes — delta encoding on sorted adjacency typically lands at 1–2
// bytes/edge.
func CompressedCSRBytes(v, dataLen uint64) uint64 {
	nb := (v + graph.CompressedBlockSize - 1) / graph.CompressedBlockSize
	return 4*v + 2*8*(nb+1) + dataLen
}

// MeasureRetained builds a value and returns the settled heap bytes it
// retains: heap growth from before the build to after a post-build GC,
// with the result kept alive across the final measurement. Unlike
// MeasurePeakHeap this excludes build-time scratch, which is the right
// quantity for comparing resident graph backends (a compressed build
// briefly holds encoder buffers that do not survive it).
func MeasureRetained(build func() any) uint64 {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// BytesPerVertex normalises a footprint to the paper's per-vertex unit.
func BytesPerVertex(bytes uint64, v int) float64 {
	if v == 0 {
		return 0
	}
	return float64(bytes) / float64(v)
}

// IPregelParams describes an engine instantiation for the analytic model.
type IPregelParams struct {
	Config core.Config
	// V, E are the graph dimensions.
	V, E uint64
	// ValueBytes and MessageBytes are the user value and message sizes.
	ValueBytes, MessageBytes uint64
	// InAdjacency / OutAdjacency say which CSR directions are resident
	// (the paper's per-version vertex internals, §3.2).
	InAdjacency, OutAdjacency bool
}

// IPregelBytes computes the analytic footprint of an iPregel engine plus
// its graph, mirroring exactly the allocations of internal/core (the unit
// tests cross-check this against Engine.FootprintBytes). The
// selection-bypass frontier lists are counted at their worst case: the
// push list cap (core.FrontierListCap) on a push-only engine, every
// vertex on one that can pull, whose pull supersteps list the whole
// frontier.
func IPregelBytes(p IPregelParams) uint64 {
	slots := p.V                  // one per vertex: offset mapping (§5)
	total := slots * p.ValueBytes // values
	if !p.Config.SelectionBypass {
		total += (slots + 63) / 64 * 8 // activity bits; bypass keeps none
	}

	// mailbox: double-buffered single-message inboxes + flags, plus what
	// protects them from concurrent senders — which a one-thread engine
	// and a pull-only one (every deposit is its owner's collect) have none
	// of, so they allocate the plain inbox whatever the combiner
	pulls := p.Config.Direction != core.DirectionPush
	racy := p.Config.ResolvedThreads() > 1 && p.Config.Direction != core.DirectionPull
	total += slots*2*p.MessageBytes + (slots+63)/64*2*8 // messages + occupancy bits
	switch {
	case p.Config.Combiner == core.CombinerMutex && racy:
		total += slots * 8
	case p.Config.Combiner == core.CombinerSpin && racy:
		total += slots * 4
	}
	// the pull transport of an engine that can pull: outbox + flags, no
	// locks, and under bypass the CAS flags that dedup a pull broadcast's
	// enrolments — a push superstep enrols at the first inbox fill and
	// needs none
	if pulls {
		total += slots*p.MessageBytes + slots
	}
	if p.Config.SelectionBypass {
		list := uint64(core.FrontierListCap(int(p.V)))
		// each worker's enrolment buffer, as New sizes it
		total += uint64(p.Config.ResolvedThreads()) * list * 4
		frontier := list
		if pulls {
			total += slots * 4 // pull enrolment dedup flags
			frontier = p.V
		}
		total += 2 * frontier * 4 // frontier double buffer, worst case
	}
	// graph
	if p.OutAdjacency {
		total += CSRBytes(p.V, p.E)
	} else {
		total += 4 * (p.V + 1) // degree-only: offsets remain
	}
	if p.InAdjacency {
		total += CSRBytes(p.V, p.E)
	}
	return total
}

// PregelPlusParams describes a Pregel+ deployment for the analytic model.
type PregelPlusParams struct {
	V, E         uint64
	MessageBytes uint64
	ValueBytes   uint64
	// Workers is the total process count (nodes × procs/node).
	Workers uint64
	// Combiner limits per-vertex inbox growth to one message per sending
	// worker.
	Combiner bool
}

// EnvBytesPerProcess models the duplicated "application and distributed
// software environment" each MPI process keeps resident (§7.4.4). The
// 1 GiB value calibrates the full-Twitter projection to the paper's
// reported 109 GB for Pregel+ (§7.4.3); see EXPERIMENTS.md.
const EnvBytesPerProcess = 1 << 30

// PregelPlusBytes computes the analytic peak footprint of the Pregel+
// baseline, mirroring internal/pregelplus's structures: boxed vertices
// behind hash maps, per-vertex adjacency and inbox queues, wrapped
// messages in send and receive buffers, plus the per-process environment.
func PregelPlusBytes(p PregelPlusParams) uint64 {
	const (
		allocHeader = 16
		mapEntry    = 48
		vertexFixed = 64 // struct Vertex: id+value+flags+slice headers, rounded
	)
	msgs := p.E // one message per edge per superstep (PageRank steady state)
	if p.Combiner && p.V*p.Workers < msgs {
		msgs = p.V * p.Workers
	}
	total := p.V * (vertexFixed + allocHeader + mapEntry + p.ValueBytes)
	total += p.E*4 + p.V*allocHeader // per-vertex adjacency slices
	total += p.V * 4                 // iteration order
	total += msgs * p.MessageBytes   // inbox queues at peak
	wire := msgs * (4 + p.MessageBytes)
	total += 2 * wire // send + receive buffers coexist at the exchange
	total += p.Workers * EnvBytesPerProcess
	return total
}

// GiraphOverheadFactor calibrates the Giraph model: the paper (quoting
// its reference [20]) reports 264 GB for PageRank on the 8 GB-binary
// Twitter graph, i.e. a total of ~33× the binary size, of which 32× is
// framework overhead. Giraph is never executed here (nor in the paper);
// this constant only reproduces the §7.4.3 comparison row.
const GiraphOverheadFactor = 32

// GiraphBytes projects Giraph's footprint as binary size × (1 +
// GiraphOverheadFactor).
func GiraphBytes(v, e uint64) uint64 {
	return GraphBinaryBytes(v, e) * (1 + GiraphOverheadFactor)
}

// GB formats a byte count in the paper's decimal units, falling back to
// MB/KB below a gigabyte so scaled-down experiments stay readable.
func GB(b uint64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2fGB", float64(b)/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2fMB", float64(b)/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2fKB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// FitsBudget reports whether a footprint fits a memory budget — the
// breaking-point predicate of §7.4.2.
func FitsBudget(bytes, budget uint64) bool { return bytes <= budget }
