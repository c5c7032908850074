package telemetry

import (
	"fmt"
	"sync/atomic"

	"ipregel/internal/core"
)

// JobCollector is a Collector scope for one run: a core.Observer that
// keeps the run's own counters and gauges, folds every counter into the
// parent so the global totals stay exact, and appears in the parent's
// /metrics output as a `{job="id"}`-labelled block until Release.
//
// This is the fix for the multi-run attribution bug: the parent's
// gauges (active vertices, frontier, imbalance, current superstep) are
// last-writer-wins across concurrent runs, so a resident service giving
// each job its own scope is the only way /metrics stays truthful while
// several engines share one collector. Counters attribute per job here
// and sum globally in the parent.
type JobCollector struct {
	parent *Collector
	id     string

	// started guards the parent's exact activeRuns gauge: incremented on
	// the first superstep, decremented at run end.
	started atomic.Bool

	// counters (this job only; the parent accumulates the sum)
	runs, runsConverged, runsAborted atomic.Int64
	supersteps                       atomic.Int64
	messages                         atomic.Uint64
	casRetries                       atomic.Uint64
	directionSwitches                atomic.Int64
	verticesRan                      atomic.Int64
	recoveries                       atomic.Int64

	// gauges (this job's last barrier — exact under concurrency, unlike
	// the parent's global ones)
	currentSuperstep atomic.Int64
	lastActive       atomic.Int64
	lastRan          atomic.Int64
	lastFrontier     atomic.Int64
	lastStepNanos    atomic.Int64
	lastImbalanceMil atomic.Int64
	running          atomic.Int64
}

var _ core.Observer = (*JobCollector)(nil)

// Job registers a per-run scope under id and returns it. The id must be
// unique among the collector's live scopes — two concurrent runs sharing
// one label would reintroduce exactly the attribution garbage this API
// removes — and is freed again by Release.
func (c *Collector) Job(id string) (*JobCollector, error) {
	if id == "" {
		return nil, fmt.Errorf("telemetry: job id must be non-empty")
	}
	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	if c.jobs == nil {
		c.jobs = make(map[string]*JobCollector)
	}
	if _, dup := c.jobs[id]; dup {
		return nil, fmt.Errorf("telemetry: job %q already has a live scope on this collector", id)
	}
	j := &JobCollector{parent: c, id: id}
	c.jobs[id] = j
	return j, nil
}

// ID returns the scope's job label.
func (j *JobCollector) ID() string { return j.id }

// Release removes the scope from the parent's scrape output. The job's
// counters remain folded into the parent's totals; only the labelled
// lines disappear. Idempotent.
func (j *JobCollector) Release() {
	j.parent.jobMu.Lock()
	if cur, ok := j.parent.jobs[j.id]; ok && cur == j {
		delete(j.parent.jobs, j.id)
	}
	j.parent.jobMu.Unlock()
	// A scope released mid-run (abnormal, but possible if a caller tears
	// down early) must not leave the exact active-runs gauge stuck.
	if j.started.CompareAndSwap(true, false) {
		j.parent.activeRuns.Add(-1)
	}
}

// OnSuperstepStart implements core.Observer.
func (j *JobCollector) OnSuperstepStart(superstep int) {
	if j.started.CompareAndSwap(false, true) {
		j.parent.activeRuns.Add(1)
	}
	j.running.Store(1)
	j.currentSuperstep.Store(int64(superstep))
}

// OnSuperstepEnd implements core.Observer: fold the superstep into this
// job's scope, then into the parent's global counters.
func (j *JobCollector) OnSuperstepEnd(superstep int, s core.StepStats) {
	j.currentSuperstep.Store(int64(superstep))
	if !s.Partial {
		j.supersteps.Add(1)
	}
	j.messages.Add(s.Messages)
	j.casRetries.Add(s.CASRetries)
	j.verticesRan.Add(s.Ran)
	if s.DirectionSwitched {
		j.directionSwitches.Add(1)
	}
	j.lastActive.Store(s.Active)
	j.lastRan.Store(s.Ran)
	j.lastFrontier.Store(s.NextFrontier)
	j.lastStepNanos.Store(int64(s.Duration))
	j.lastImbalanceMil.Store(int64(s.Imbalance() * 1000))
	j.parent.OnSuperstepEnd(superstep, s)
}

// OnAbort implements core.Observer.
func (j *JobCollector) OnAbort(superstep int, reason string, err error) {
	j.runsAborted.Add(1)
	j.parent.OnAbort(superstep, reason, err)
}

// OnRunEnd implements core.Observer.
func (j *JobCollector) OnRunEnd(r core.Report, err error) {
	j.runs.Add(1)
	if err == nil {
		j.runsConverged.Add(1)
	}
	j.running.Store(0)
	if j.started.CompareAndSwap(true, false) {
		j.parent.activeRuns.Add(-1)
	}
	j.parent.foldRunEnd(err)
}

// RecordRecovery counts a checkpoint-based resume against this job and
// the global total (see Collector.RecordRecovery).
func (j *JobCollector) RecordRecovery() {
	j.recoveries.Add(1)
	j.parent.recoveries.Add(1)
}

// Snapshot returns the job-scoped values under the same metric names
// the parent uses; WriteMetrics renders them with a job label.
func (j *JobCollector) Snapshot() map[string]int64 {
	return map[string]int64{
		"ipregel_runs_total":               j.runs.Load(),
		"ipregel_runs_converged_total":     j.runsConverged.Load(),
		"ipregel_runs_aborted_total":       j.runsAborted.Load(),
		"ipregel_recoveries_total":         j.recoveries.Load(),
		"ipregel_runs_active":              j.running.Load(),
		"ipregel_supersteps_total":         j.supersteps.Load(),
		"ipregel_messages_total":           int64(j.messages.Load()),
		"ipregel_cas_retries_total":        int64(j.casRetries.Load()),
		"ipregel_direction_switches_total": j.directionSwitches.Load(),
		"ipregel_vertices_ran_total":       j.verticesRan.Load(),
		"ipregel_current_superstep":        j.currentSuperstep.Load(),
		"ipregel_last_active_vertices":     j.lastActive.Load(),
		"ipregel_last_ran_vertices":        j.lastRan.Load(),
		"ipregel_last_frontier_size":       j.lastFrontier.Load(),
		"ipregel_last_superstep_nanos":     j.lastStepNanos.Load(),
		"ipregel_last_imbalance_millis":    j.lastImbalanceMil.Load(),
	}
}
