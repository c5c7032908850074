// Package telemetry is the live observability layer over internal/core:
// stdlib-only sinks for the engine's Observer hook that (a) maintain
// counters and gauges — supersteps, messages, direction switches,
// frontier size, per-worker busy time, plus heap stats read at scrape —
// published through expvar and a plain-text /metrics endpoint, (b)
// stream per-superstep trace events as schema-versioned JSONL
// (replayable by cmd/ipregel-trace), and (c) serve net/http/pprof for
// on-line profiling of a running computation.
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

// Collector is a core.Observer that maintains the live counter/gauge
// set. One Collector can watch many runs (sequentially or concurrently —
// all fields are atomics); counters accumulate across runs, gauges
// reflect the most recent barrier.
//
// The top-level gauges are global by construction: with several
// concurrent runs they are last-writer-wins, which is correct for "the
// most recent barrier seen by anyone" and garbage for "this run's
// frontier". Concurrent runs that need truthful gauges attach a
// per-run scope from Job instead: each scope keeps its own series,
// attributes them under a job label at scrape time, and still folds
// every event into the global series, so the process totals stay exact
// either way.
type Collector struct {
	s series
	// running is a best-effort in-a-run flag (1 between the first
	// superstep-start and run-end): exact for the common one-run-at-a-
	// time CLI usage, approximate if several concurrent runs share one
	// collector directly. Runs observed through Job scopes are counted
	// exactly in activeRuns instead; the snapshot reports the sum.
	running    atomic.Int64
	activeRuns atomic.Int64

	// jobs holds the live per-run scopes for labelled scrape output.
	jobMu sync.Mutex
	jobs  map[string]*JobCollector
}

// series is the engine series one scope publishes: run counters
// (monotonic across runs) and the last barrier's gauges. The Collector
// and every Job scope hold one each; runs_active is the owner's.
type series struct {
	runs, converged, aborted, recoveries        atomic.Int64
	supersteps, messages, switches, verticesRan atomic.Int64
	current, lastActive, lastRan, lastFrontier  atomic.Int64
	lastStepNanos, lastImbalanceMil             atomic.Int64 // imbalance ×1000
}

// step folds one superstep's statistics.
func (m *series) step(superstep int, s core.StepStats) {
	m.current.Store(int64(superstep))
	if !s.Partial {
		m.supersteps.Add(1)
	}
	m.messages.Add(int64(s.Messages))
	m.verticesRan.Add(s.Ran)
	if s.DirectionSwitched {
		m.switches.Add(1)
	}
	m.lastActive.Store(s.Active)
	m.lastRan.Store(s.Ran)
	m.lastFrontier.Store(s.NextFrontier)
	m.lastStepNanos.Store(int64(s.Duration))
	m.lastImbalanceMil.Store(int64(s.Imbalance() * 1000))
}

// runEnd folds one finished run: converged iff err is nil.
func (m *series) runEnd(err error) {
	m.runs.Add(1)
	if err == nil {
		m.converged.Add(1)
	} else {
		m.aborted.Add(1)
	}
}

// write stores the series into a snapshot map under their /metrics
// names (counters suffixed _total, the Prometheus convention).
func (m *series) write(out map[string]int64, running int64) {
	out["ipregel_runs_total"] = m.runs.Load()
	out["ipregel_runs_converged_total"] = m.converged.Load()
	out["ipregel_runs_aborted_total"] = m.aborted.Load()
	out["ipregel_recoveries_total"] = m.recoveries.Load()
	out["ipregel_runs_active"] = running
	out["ipregel_supersteps_total"] = m.supersteps.Load()
	out["ipregel_messages_total"] = m.messages.Load()
	out["ipregel_direction_switches_total"] = m.switches.Load()
	out["ipregel_vertices_ran_total"] = m.verticesRan.Load()
	out["ipregel_current_superstep"] = m.current.Load()
	out["ipregel_last_active_vertices"] = m.lastActive.Load()
	out["ipregel_last_ran_vertices"] = m.lastRan.Load()
	out["ipregel_last_frontier_size"] = m.lastFrontier.Load()
	out["ipregel_last_superstep_nanos"] = m.lastStepNanos.Load()
	out["ipregel_last_imbalance_millis"] = m.lastImbalanceMil.Load()
}

// NewCollector returns an empty collector. Call Publish to expose it via
// expvar, Serve or Handler for /metrics, or Snapshot to read it directly.
func NewCollector() *Collector { return &Collector{} }

var _ core.Observer = (*Collector)(nil)

// OnSuperstepStart implements core.Observer.
func (c *Collector) OnSuperstepStart(superstep int) {
	c.running.Store(1)
	c.s.current.Store(int64(superstep))
}

// OnSuperstepEnd implements core.Observer.
func (c *Collector) OnSuperstepEnd(superstep int, s core.StepStats) {
	c.s.step(superstep, s)
}

// OnRunEnd implements core.Observer. Every run fires it exactly once,
// so the run counters, aborts included, live here.
func (c *Collector) OnRunEnd(r core.Report, err error) {
	c.s.runEnd(err)
	c.running.Store(0)
}

// RecordRecovery counts one checkpoint-based resume performed by a
// recovery supervisor. It is not part of the Observer interface — the
// supervisor sits above individual runs — so wire it through
// core.RecoveryOptions.OnRetry:
//
//	OnRetry: func(int, error) { collector.RecordRecovery() }
func (c *Collector) RecordRecovery() {
	c.s.recoveries.Add(1)
}

// Snapshot returns the current values as a flat name → value map, the
// shared source for both the expvar publication and /metrics rendering.
// The process series — heap objects and GC cycles from runtime/metrics
// (no stop-the-world, unlike runtime.ReadMemStats), and the snapshot
// time — are read here, at scrape, never at a barrier.
func (c *Collector) Snapshot() map[string]int64 {
	out := make(map[string]int64, 19)
	c.s.write(out, c.running.Load()+c.activeRuns.Load())
	samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	for i, name := range []string{"ipregel_heap_objects_bytes", "ipregel_gc_cycles_total"} {
		out[name] = 0
		if v := samples[i].Value; v.Kind() == metrics.KindUint64 {
			out[name] = int64(v.Uint64())
		}
	}
	out["ipregel_snapshot_unix_nanos"] = time.Now().UnixNano()
	return out
}

// WriteMetrics renders the snapshot in the plain-text exposition format
// (one "name value" line, sorted), the payload of the /metrics endpoint.
// After the global lines it emits one `name{job="id"} value` block per
// live Job scope (sorted by id), so concurrent runs stay individually
// attributable instead of collapsing into last-writer-wins gauges.
func (c *Collector) WriteMetrics(w io.Writer) error {
	if err := writeSorted(w, c.Snapshot(), ""); err != nil {
		return err
	}
	for _, j := range c.jobScopes() {
		label := fmt.Sprintf("{job=%q}", labelEscaper.Replace(j.ID()))
		if err := writeSorted(w, j.Snapshot(), label); err != nil {
			return err
		}
	}
	return nil
}

// writeSorted writes one "name<label> value" line per series, by name.
func writeSorted(w io.Writer, snap map[string]int64, label string) error {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", name, label, snap[name]); err != nil {
			return err
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
