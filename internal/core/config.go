// Package core implements the iPregel vertex-centric framework of the
// paper: a Bulk-Synchronous-Parallel, in-memory, shared-memory engine whose
// three optimisation modules — vertex selection, vertex addressing and
// combination — each exist in several versions (paper Fig. 2). Here
// addressing has one: offset mapping (§5), under which a vertex's slot in
// the engine's arrays is its internal graph index, slot = id − base.
//
// The original C framework selects module versions with compile-time
// defines (§3.1.1). Go has no preprocessor, so the selection moves into
// Config: every module version is a separate implementation behind a small
// interface, chosen when the Engine is built. The user-facing programming
// model is the paper's (Fig. 3 and 4): a Compute function run on every
// active vertex each superstep, a Combine function merging a new message
// into a mailbox that holds at most one message (§6.3), and Context calls
// mirroring IP_send_message, IP_broadcast, IP_vote_to_halt,
// IP_get_next_message, IP_get_superstep and IP_get_vertices_count.
package core

import (
	"fmt"
	"runtime"
	"strings"
)

// Combiner selects what makes a concurrent push delivery safe (paper
// §6.1). It matters only where
// several workers can deliver into one inbox at once: a one-thread engine
// and a pull-only engine (Direction pull, the paper's §6.2 broadcast
// version) build the plain inbox whatever it says.
type Combiner int

const (
	// CombinerMutex is the push-based combiner with block-waiting
	// synchronisation (§6.1): one sync.Mutex per vertex mailbox.
	CombinerMutex Combiner = iota
	// CombinerSpin is the push-based combiner with busy-waiting
	// synchronisation (§6.1): one 4-byte spinlock per vertex mailbox.
	CombinerSpin
)

var combinerNames = map[Combiner]string{
	CombinerMutex: "mutex",
	CombinerSpin:  "spinlock",
}

func (c Combiner) String() string {
	if s, ok := combinerNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Combiner(%d)", int(c))
}

// ParseCombiner converts "mutex" or "spinlock"/"spin" to a Combiner. The
// paper's broadcast version is a transport, not an inbox: it is Direction
// pull.
func ParseCombiner(s string) (Combiner, error) {
	switch strings.ToLower(s) {
	case "mutex":
		return CombinerMutex, nil
	case "spinlock", "spin":
		return CombinerSpin, nil
	}
	return 0, fmt.Errorf("core: unknown combiner %q (mutex | spinlock; the broadcast version is direction pull)", s)
}

// Direction selects the transport of a superstep's sends: push delivers
// at send time into the recipients' mailboxes, pull buffers one outbox
// entry per broadcasting vertex and fans out at the end-of-superstep
// collect phase. It is a per-run — and, with DirectionAdaptive,
// per-superstep — engine decision layered over any inbox combiner (the
// follow-up iPregel work on extreme irregularity, arXiv 2010.01542).
type Direction int

const (
	// DirectionPush delivers every send at send time (the default).
	DirectionPush Direction = iota
	// DirectionPull runs every superstep through the outbox/collect
	// transport: the paper's broadcast version (§6.2). Every deposit is
	// then the receiver's own collect, so the engine builds the plain
	// inbox at any thread count. Requires in-edges and a broadcast-only
	// program.
	DirectionPull
	// DirectionAdaptive picks the transport per superstep from the exact
	// frontier density: pull when the upcoming frontier's out-edges reach
	// AdaptiveThreshold·|E|, push otherwise (Beamer-style switching).
	DirectionAdaptive
)

var directionNames = map[Direction]string{
	DirectionPush:     "push",
	DirectionPull:     "pull",
	DirectionAdaptive: "adaptive",
}

func (d Direction) String() string {
	if s, ok := directionNames[d]; ok {
		return s
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// ParseDirection converts "push", "pull", or "adaptive" to a Direction.
func ParseDirection(s string) (Direction, error) {
	switch strings.ToLower(s) {
	case "push", "":
		return DirectionPush, nil
	case "pull":
		return DirectionPull, nil
	case "adaptive":
		return DirectionAdaptive, nil
	}
	return 0, fmt.Errorf("core: unknown direction %q (push | pull | adaptive)", s)
}

// AdaptiveThreshold is DirectionAdaptive's switch: a superstep goes pull
// when the upcoming frontier's out-edges reach this fraction of |E|.
const AdaptiveThreshold = 0.05

// Config selects the module versions of an Engine, the Go equivalent of
// the paper's compilation defines (§3.1.1).
type Config struct {
	Combiner Combiner
	// Direction selects the send transport: push (the zero value), pull,
	// or adaptive per-superstep switching. Pull and adaptive require the
	// graph's in-adjacency and a broadcast-only program (Send panics on a
	// pull superstep): each vertex writes only its own outbox slot and the
	// collect phase is owner-only per destination, so there is nothing to
	// contend on. A pull-only engine therefore builds the plain inbox and
	// ignores Combiner; an adaptive one builds Combiner's inbox for its
	// push supersteps.
	Direction Direction
	// SelectionBypass enables the paper's §4 technique: senders enrol
	// their recipients in the next superstep's work list, skipping the
	// selection scan entirely. Only valid for applications in which every
	// vertex votes to halt at the end of every superstep (Hashmin, SSSP —
	// not PageRank).
	SelectionBypass bool
	// Threads is the number of worker goroutines; 0 means GOMAXPROCS.
	// New refuses a negative count.
	Threads int
	// MaxSupersteps aborts runs that exceed this many supersteps; 0 means
	// no limit.
	MaxSupersteps int
	// CheckInvariants enables the engine's full runtime audit: at every
	// superstep barrier the engine verifies the inbox occupancy (one set
	// bit per counted fill), under selection bypass the enrolment
	// rule (the next frontier is duplicate-free and equals the set of
	// occupied next-inbox slots; no pull dedup flag outlives its collect),
	// and message conservation in both directions (every
	// Send is accounted for as a combine into an occupied mailbox or a
	// first fill of an empty one). Violations abort the run with an
	// *InvariantError. The stress and parity test suites run with this
	// on; production runs leave it off — it adds O(slots) scans per
	// superstep.
	CheckInvariants bool
	// TrackWorkerTime records each worker's busy time per superstep into
	// StepStats.WorkerBusy, feeding Report.LoadImbalance — the measurable
	// form of §4's load-balancing argument. Off by default (it adds two
	// clock reads per worker per phase).
	TrackWorkerTime bool
	// Observers are the engine's lifecycle sinks, notified in list order
	// (New rejects a nil entry). Carrying them in Config lets callers that
	// build engines indirectly (the algorithms helpers, the bench harness)
	// attach telemetry without new plumbing; the engine notifies them at
	// every superstep barrier and on every exit path (see the Observer
	// ordering contract). All hooks fire on the coordinating goroutine,
	// outside the parallel phases, so an empty list costs nothing on the
	// hot path.
	Observers []Observer
}

// VersionName returns the short name used in Fig. 7's legend, e.g.
// "spinlock+bypass" or "broadcast" — the paper's name for a pull-only
// engine, which has no Combiner to name.
func (c Config) VersionName() string {
	name := c.Combiner.String()
	switch c.Direction {
	case DirectionPull:
		name = "broadcast"
	case DirectionAdaptive:
		name += "+adaptive"
	}
	if c.SelectionBypass {
		name += "+bypass"
	}
	return name
}

// ResolvedThreads is the worker count an engine built from c runs with:
// Threads, or GOMAXPROCS when that is 0. It also decides the inbox of a
// push or adaptive engine — one worker needs no lock (newMailbox) — so
// the footprint model reads it rather than guessing the resolution.
func (c Config) ResolvedThreads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// AllVersions returns the six iPregel versions of the paper's Fig. 7
// evaluation: mutex, spinlock and broadcast (pull), each with and without
// selection bypass.
func AllVersions() []Config {
	var out []Config
	for _, v := range []Config{{Combiner: CombinerMutex}, {Combiner: CombinerSpin}, {Direction: DirectionPull}} {
		for _, bypass := range []bool{false, true} {
			v.SelectionBypass = bypass
			out = append(out, v)
		}
	}
	return out
}
