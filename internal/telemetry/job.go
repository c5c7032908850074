package telemetry

import (
	"fmt"
	"sync/atomic"

	"ipregel/internal/core"
)

// JobCollector is a Collector scope for one run: a core.Observer that
// keeps the run's own series, folds every event into the parent's too so
// the global totals stay exact, and appears in the parent's /metrics
// output as a `{job="id"}`-labelled block until Release. The parent's
// gauges (active vertices, frontier, imbalance, current superstep) are
// last-writer-wins across concurrent runs; a scope's are its own run's,
// which is why a resident service gives each job one.
type JobCollector struct {
	parent *Collector
	id     string
	s      series

	// started is the scope's runs_active gauge and guards the parent's
	// exact activeRuns count: set on the first superstep, cleared at run
	// end.
	started atomic.Bool
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
	j.s.current.Store(int64(superstep))
}

// OnSuperstepEnd implements core.Observer: fold the superstep into this
// job's series, then into the parent's.
func (j *JobCollector) OnSuperstepEnd(superstep int, s core.StepStats) {
	j.s.step(superstep, s)
	j.parent.s.step(superstep, s)
}

// OnRunEnd implements core.Observer.
func (j *JobCollector) OnRunEnd(r core.Report, err error) {
	j.s.runEnd(err)
	j.parent.s.runEnd(err)
	if j.started.CompareAndSwap(true, false) {
		j.parent.activeRuns.Add(-1)
	}
}

// RecordRecovery counts a checkpoint-based resume against this job and
// the global total (see Collector.RecordRecovery).
func (j *JobCollector) RecordRecovery() {
	j.s.recoveries.Add(1)
	j.parent.s.recoveries.Add(1)
}

// Snapshot returns the job-scoped engine series under the same metric
// names the parent uses; WriteMetrics renders them with a job label.
func (j *JobCollector) Snapshot() map[string]int64 {
	out := make(map[string]int64, 16)
	var running int64
	if j.started.Load() {
		running = 1
	}
	j.s.write(out, running)
	return out
}
