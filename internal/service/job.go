package service

import (
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/telemetry"
)

// JobState is a job's lifecycle position. Transitions are strictly
// forward: queued → running → one of {done, failed, cancelled}; a cache
// hit is born done.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Params are the program parameters. Every program uses a subset;
// canonicalisation (programs.go, and the app table in
// internal/algorithms/apps.go) rejects fields its program ignores, so
// a request cannot silently carry dead knobs — and so the cache key,
// which is derived from the canonical form, never distinguishes two
// requests that would compute the same thing.
type Params struct {
	// Rounds is PageRank's damping-iteration count (program "pagerank").
	Rounds int `json:"rounds,omitempty"`
	// Source is the SSSP/BFS source, as an external vertex identifier.
	Source *uint64 `json:"source,omitempty"`
	// Tolerance is "pagerank-converged"'s stopping threshold.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Top requests the N highest-ranked vertices (PageRank programs).
	Top int `json:"top,omitempty"`
	// Vertices requests the result values of these external identifiers.
	Vertices []uint64 `json:"vertices,omitempty"`
	// Direction overrides the engine template's per-superstep message
	// transport for this job: "push", "pull" or "adaptive" (empty = the
	// template default; every program accepts it). Pull and adaptive
	// need the graph loaded with in-edges. A value equal to the template
	// default canonicalises to the empty string so an explicit default
	// shares its cache key with the omitted field.
	Direction string `json:"direction,omitempty"`
}

// Limits bound one job's execution. They never enter the cache key: a
// limit decides whether a job finishes, not what value it computes, so
// a complete cached result satisfies any limits.
type Limits struct {
	// MaxSupersteps aborts the job beyond this many supersteps
	// (0 = the service cap).
	MaxSupersteps int `json:"max_supersteps,omitempty"`
	// DeadlineMillis cancels the job after this wall-clock budget
	// (0 = the service default). Cancellation rides the engine's
	// context path: the run aborts at the next superstep barrier, and
	// its last checkpoint (if checkpointing is on) stays resumable.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Threads is the job's worker-goroutine count (0 = engine default,
	// capped at GOMAXPROCS).
	Threads int `json:"threads,omitempty"`
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	Graph   string `json:"graph"`
	Program string `json:"program"`
	Params  Params `json:"params"`
	Limits  Limits `json:"limits"`
	// NoCache skips the result cache in both directions: the job always
	// executes, and its result is not stored.
	NoCache bool `json:"no_cache,omitempty"`
}

// VertexValue is one vertex's result value. Value carries ranks,
// distances, depths and component labels (all exactly representable);
// Parent is set only by BFS.
type VertexValue struct {
	ID     uint64  `json:"id"`
	Value  float64 `json:"value"`
	Parent *uint64 `json:"parent,omitempty"`
}

// Result is a finished job's payload. Program-specific fields are
// omitted when empty.
type Result struct {
	Supersteps   int     `json:"supersteps"`
	Messages     uint64  `json:"messages"`
	EngineMillis float64 `json:"engine_millis"`
	VertexCount  int     `json:"vertex_count"`

	// Components is set by hashmin and wcc.
	Components int `json:"components,omitempty"`
	// Reached is set by sssp and bfs: vertices at finite distance.
	Reached int `json:"reached,omitempty"`
	// RankSum is set by the PageRank programs (≈1 minus sink leakage).
	RankSum float64 `json:"rank_sum,omitempty"`
	// ConvergedIn is pagerank-converged's superstep count at the
	// tolerance crossing.
	ConvergedIn int `json:"converged_in,omitempty"`
	// Top holds the N highest-ranked vertices when params.top was set.
	Top []VertexValue `json:"top,omitempty"`
	// Values holds the vertices requested via params.vertices.
	Values []VertexValue `json:"values,omitempty"`
	// Recoveries counts checkpoint-based resumes during the job.
	Recoveries int `json:"recoveries,omitempty"`
}

// Job is the internal record; all mutable fields are guarded by the
// Service mutex. JobView is the immutable snapshot handed out.
type Job struct {
	id      string
	graph   string
	program string
	params  Params
	limits  Limits
	noCache bool
	key     string
	entry   *graphEntry
	app     *algorithms.App

	deadline time.Duration
	scope    *telemetry.JobCollector

	state    JobState
	cached   bool
	err      string
	result   *Result
	attempts int
	enqueued time.Time
	started  time.Time
	finished time.Time
}

// JobView is the JSON shape of one job for the HTTP API.
type JobView struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Graph   string   `json:"graph"`
	Program string   `json:"program"`
	Params  Params   `json:"params"`
	Limits  Limits   `json:"limits"`
	Cached  bool     `json:"cached,omitempty"`
	Error   string   `json:"error,omitempty"`

	EnqueuedAt  time.Time `json:"enqueued_at"`
	QueueMillis float64   `json:"queue_millis,omitempty"`
	RunMillis   float64   `json:"run_millis,omitempty"`
	Attempts    int       `json:"attempts,omitempty"`

	Result *Result `json:"result,omitempty"`
}

// viewLocked snapshots the job; the caller holds the Service mutex.
// The *Result is shared but immutable once the job finished.
func (jb *Job) viewLocked() JobView {
	v := JobView{
		ID:         jb.id,
		State:      jb.state,
		Graph:      jb.graph,
		Program:    jb.program,
		Params:     jb.params,
		Limits:     jb.limits,
		Cached:     jb.cached,
		Error:      jb.err,
		EnqueuedAt: jb.enqueued,
		Attempts:   jb.attempts,
		Result:     jb.result,
	}
	if !jb.started.IsZero() {
		v.QueueMillis = float64(jb.started.Sub(jb.enqueued)) / float64(time.Millisecond)
	}
	if !jb.finished.IsZero() && !jb.started.IsZero() {
		v.RunMillis = float64(jb.finished.Sub(jb.started)) / float64(time.Millisecond)
	}
	return v
}
