// Package telemetry is the live observability layer over internal/core:
// stdlib-only sinks for the engine's Observer hook that (a) maintain
// counters and gauges — supersteps, messages, mailbox CAS retries,
// frontier size, per-worker busy time, heap stats sampled at each
// superstep barrier — published through expvar and a plain-text
// /metrics endpoint, (b) stream per-superstep trace events as
// schema-versioned JSONL (replayable by cmd/ipregel-trace), and (c)
// serve net/http/pprof for on-line profiling of a running computation.
//
// The paper's whole §7 evaluation reasons about per-superstep behaviour
// (active-vertex curves, message volume, the load-balance argument
// behind selection bypass); this package makes those quantities visible
// while a run is still going instead of only in the post-run Report —
// the instrumentation the follow-up iPregel papers (arXiv:2010.08781,
// arXiv:2010.01542) lean on to diagnose irregular workloads.
//
// Everything here runs on the engine's coordinating goroutine at
// superstep barriers, never inside the parallel phases: an engine with
// no sinks attached pays nothing on the hot path (see
// BenchmarkTelemetryOverhead).
package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipregel/internal/core"
)

// heapSamples are the runtime/metrics series sampled at each superstep
// barrier — cheap reads (no stop-the-world, unlike runtime.ReadMemStats)
// of the quantities the paper's §7.4 memory accounting cares about.
var heapSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
}

// Collector is a core.Observer that maintains the live counter/gauge
// set. One Collector can watch many runs (sequentially or concurrently —
// all fields are atomics); counters accumulate across runs, gauges
// reflect the most recent barrier.
//
// The top-level gauges are global by construction: with several
// concurrent runs they are last-writer-wins, which is correct for "the
// most recent barrier seen by anyone" and garbage for "this run's
// frontier". Concurrent runs that need truthful gauges attach a
// per-run scope from Job instead: each scope keeps its own gauges and
// counters, attributes them under a job label at scrape time, and still
// folds every counter into the global set, so the process totals stay
// exact either way.
type Collector struct {
	// counters (monotonic across runs)
	runs, runsConverged, runsAborted atomic.Int64
	supersteps                       atomic.Int64
	messages                         atomic.Uint64
	casRetries                       atomic.Uint64
	directionSwitches                atomic.Int64
	verticesRan                      atomic.Int64
	recoveries                       atomic.Int64

	// gauges (last barrier / last run)
	currentSuperstep atomic.Int64
	lastActive       atomic.Int64
	lastRan          atomic.Int64
	lastFrontier     atomic.Int64
	lastStepNanos    atomic.Int64
	lastImbalanceMil atomic.Int64 // StepStats.Imbalance ×1000
	heapBytes        atomic.Uint64
	gcCycles         atomic.Uint64
	// running is a best-effort in-a-run flag (1 between the first
	// superstep-start and run-end): exact for the common one-run-at-a-
	// time CLI usage, approximate if several concurrent runs share one
	// collector directly. Runs observed through Job scopes are counted
	// exactly in activeRuns instead; the snapshot reports the sum.
	running atomic.Int64
	// activeRuns counts the Job-scoped runs currently between their first
	// superstep and run end — exact under concurrency, unlike running.
	activeRuns atomic.Int64

	// jobs holds the live per-run scopes for labelled scrape output.
	jobMu sync.Mutex
	jobs  map[string]*JobCollector

	sampleBuf []metrics.Sample
	sampleMu  sync.Mutex
}

// NewCollector returns an empty collector. Call Publish to expose it via
// expvar, or Sink/ServeMetrics to read it directly.
func NewCollector() *Collector { return &Collector{} }

var _ core.Observer = (*Collector)(nil)

// OnSuperstepStart implements core.Observer.
func (c *Collector) OnSuperstepStart(superstep int) {
	c.running.Store(1)
	c.currentSuperstep.Store(int64(superstep))
}

// OnSuperstepEnd implements core.Observer: fold one superstep's
// statistics into the counters and sample the heap. Job scopes call it
// on their parent too, so the global counters are always the sum over
// every observed run.
func (c *Collector) OnSuperstepEnd(superstep int, s core.StepStats) {
	c.currentSuperstep.Store(int64(superstep))
	if !s.Partial {
		c.supersteps.Add(1)
	}
	c.messages.Add(s.Messages)
	c.casRetries.Add(s.CASRetries)
	c.verticesRan.Add(s.Ran)
	c.lastActive.Store(s.Active)
	c.lastRan.Store(s.Ran)
	c.lastFrontier.Store(s.NextFrontier)
	c.lastStepNanos.Store(int64(s.Duration))
	c.lastImbalanceMil.Store(int64(s.Imbalance() * 1000))
	if s.DirectionSwitched {
		c.directionSwitches.Add(1)
	}
	c.sampleHeap()
}

// OnAbort implements core.Observer.
func (c *Collector) OnAbort(superstep int, reason string, err error) {
	c.runsAborted.Add(1)
}

// RecordRecovery counts one checkpoint-based resume performed by a
// recovery supervisor. It is not part of the Observer interface — the
// supervisor sits above individual runs — so wire it through
// core.RecoveryOptions.OnRetry:
//
//	OnRetry: func(int, error) { collector.RecordRecovery() }
func (c *Collector) RecordRecovery() {
	c.recoveries.Add(1)
}

// OnRunEnd implements core.Observer. Every run fires it exactly once,
// so the run counters live here.
func (c *Collector) OnRunEnd(r core.Report, err error) {
	c.foldRunEnd(err)
	c.running.Store(0)
}

// foldRunEnd accumulates one finished run into the counters without
// touching the direct-use running flag — the path Job scopes share, so
// one job ending cannot mark a collector watching other live jobs idle.
func (c *Collector) foldRunEnd(err error) {
	c.runs.Add(1)
	if err == nil {
		c.runsConverged.Add(1)
	}
	c.sampleHeap()
}

// sampleHeap reads the runtime/metrics series. Guarded by a mutex: a
// Collector may watch concurrent runs, and metrics.Read into a shared
// buffer must not race.
func (c *Collector) sampleHeap() {
	c.sampleMu.Lock()
	defer c.sampleMu.Unlock()
	if c.sampleBuf == nil {
		c.sampleBuf = make([]metrics.Sample, len(heapSamples))
		for i, name := range heapSamples {
			c.sampleBuf[i].Name = name
		}
	}
	metrics.Read(c.sampleBuf)
	if v := c.sampleBuf[0].Value; v.Kind() == metrics.KindUint64 {
		c.heapBytes.Store(v.Uint64())
	}
	if v := c.sampleBuf[1].Value; v.Kind() == metrics.KindUint64 {
		c.gcCycles.Store(v.Uint64())
	}
}

// Snapshot returns the current values as a flat name → value map, the
// shared source for both the expvar publication and /metrics rendering.
// Names follow the Prometheus convention (counters suffixed _total).
func (c *Collector) Snapshot() map[string]int64 {
	return map[string]int64{
		"ipregel_runs_total":               c.runs.Load(),
		"ipregel_runs_converged_total":     c.runsConverged.Load(),
		"ipregel_runs_aborted_total":       c.runsAborted.Load(),
		"ipregel_recoveries_total":         c.recoveries.Load(),
		"ipregel_runs_active":              c.running.Load() + c.activeRuns.Load(),
		"ipregel_supersteps_total":         c.supersteps.Load(),
		"ipregel_messages_total":           int64(c.messages.Load()),
		"ipregel_cas_retries_total":        int64(c.casRetries.Load()),
		"ipregel_direction_switches_total": c.directionSwitches.Load(),
		"ipregel_vertices_ran_total":       c.verticesRan.Load(),
		"ipregel_current_superstep":        c.currentSuperstep.Load(),
		"ipregel_last_active_vertices":     c.lastActive.Load(),
		"ipregel_last_ran_vertices":        c.lastRan.Load(),
		"ipregel_last_frontier_size":       c.lastFrontier.Load(),
		"ipregel_last_superstep_nanos":     c.lastStepNanos.Load(),
		"ipregel_last_imbalance_millis":    c.lastImbalanceMil.Load(),
		"ipregel_heap_objects_bytes":       int64(c.heapBytes.Load()),
		"ipregel_gc_cycles_total":          int64(c.gcCycles.Load()),
		"ipregel_snapshot_unix_nanos":      time.Now().UnixNano(),
	}
}

// WriteMetrics renders the snapshot in the plain-text exposition format
// (one "name value" line, sorted), the payload of the /metrics endpoint.
// After the global lines it emits one `name{job="id"} value` block per
// live Job scope (sorted by id), so concurrent runs stay individually
// attributable instead of collapsing into last-writer-wins gauges.
func (c *Collector) WriteMetrics(w io.Writer) error {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", name, snap[name]); err != nil {
			return err
		}
	}
	for _, j := range c.jobScopes() {
		jsnap := j.Snapshot()
		jnames := make([]string, 0, len(jsnap))
		for name := range jsnap {
			jnames = append(jnames, name)
		}
		sort.Strings(jnames)
		label := labelEscaper.Replace(j.ID())
		for _, name := range jnames {
			if _, err := fmt.Fprintf(w, "%s{job=%q} %d\n", name, label, jsnap[name]); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelEscaper applies the exposition-format label escaping rules.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// jobScopes returns the live Job scopes sorted by id.
func (c *Collector) jobScopes() []*JobCollector {
	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	out := make([]*JobCollector, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// publishOnce guards the process-global expvar registration:
// expvar.Publish panics on duplicate names, and tests (or a CLI doing
// several runs) may build several collectors.
var (
	publishOnce sync.Once
	published   atomic.Pointer[Collector]
)

// Publish exposes this collector under the expvar key "ipregel"
// (visible on /debug/vars). expvar's registry is append-only and
// process-global, so only the first published collector backs the key;
// later calls re-point the key to the newest collector instead of
// panicking.
func (c *Collector) Publish() {
	published.Store(c)
	publishOnce.Do(func() {
		expvar.Publish("ipregel", expvar.Func(func() any {
			if cur := published.Load(); cur != nil {
				return cur.Snapshot()
			}
			return nil
		}))
	})
}
