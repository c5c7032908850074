// Package service is the resident graph-query layer over internal/core:
// a process that loads one or more graphs into shared CSR storage once,
// then answers many analytic jobs against them without reloading — the
// deployment mode the paper's in-memory shared-memory design argues for
// (one copy of the graph, all parallelism inside the process).
//
// The Service owns a bounded job queue with admission control, a fixed
// worker pool, an LRU cache of finished results keyed on the canonical
// (graph, program, params) triple, and the per-job plumbing that the
// single-process-multi-run bugfixes in this tree exist for: every job
// runs under core.RunWithRecovery with a FileSink on its own directory
// (two jobs can never prune each other's checkpoints), inside a run
// directory of the service's own (two services on one root can never
// resume each other's checkpoints), and reports into
// its own telemetry.JobCollector scope (metrics attribute per job
// instead of last-writer-wins). cmd/ipregeld wraps this package in an
// HTTP/JSON daemon; see http.go for the endpoint surface.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/telemetry"
)

// Options configures a Service. The zero value is usable: push-combiner
// engine defaults, a 64-deep queue, two workers, checkpointing disabled.
type Options struct {
	// Queue bounds how many submitted jobs may wait for a worker
	// (default 64). A full queue rejects submissions (ErrQueueFull) —
	// admission control instead of unbounded memory growth.
	Queue int
	// Workers is the number of jobs executed concurrently (default 2).
	// Each job parallelises internally across its own thread count, so
	// this stays small.
	Workers int
	// CacheEntries bounds the LRU result cache (default 128; negative
	// disables caching entirely).
	CacheEntries int
	// KeepFinished bounds how many finished job records remain visible
	// through Job/Jobs before the oldest are forgotten (default 256).
	KeepFinished int
	// Engine is the core.Config template every job starts from. Per-job
	// limits overwrite Threads and MaxSupersteps; Observers gain the
	// job's telemetry scope; SelectionBypass is stripped for programs
	// that cannot run under it (PageRank).
	Engine core.Config
	// MaxSupersteps caps every job's superstep budget and is the default
	// when a request sets no limit (default 100000).
	MaxSupersteps int
	// DefaultDeadline bounds jobs that request no deadline (0 = none).
	DefaultDeadline time.Duration
	// MaxDeadline caps the per-request deadline (0 = uncapped).
	MaxDeadline time.Duration
	// CheckpointRoot enables crash recovery: Start makes a run directory
	// <root>/run-<random> for this service, and each job checkpoints into
	// <run>/<job-id> through a FileSink and runs under
	// core.RunWithRecovery. The job directory is made at the job's first
	// checkpoint; a job that finishes before one touches no file. Empty
	// disables checkpointing (jobs run directly, still cancellable).
	CheckpointRoot string
	// CheckpointEvery is the checkpoint cadence in supersteps (default 8).
	CheckpointEvery int
	// CheckpointKeep is the per-job keep-N pruning depth (default 3).
	CheckpointKeep int
	// RecoverAttempts bounds the recovery supervisor (default 3).
	RecoverAttempts int
	// Collector receives every job's telemetry through per-job scopes;
	// a fresh collector is created when nil.
	Collector *telemetry.Collector
}

func (o *Options) defaults() {
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 128
	}
	if o.KeepFinished <= 0 {
		o.KeepFinished = 256
	}
	if o.MaxSupersteps <= 0 {
		o.MaxSupersteps = 100000
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 8
	}
	if o.CheckpointKeep <= 0 {
		o.CheckpointKeep = 3
	}
	if o.RecoverAttempts <= 0 {
		o.RecoverAttempts = 3
	}
	if o.Collector == nil {
		o.Collector = telemetry.NewCollector()
	}
}

// Sentinel errors Submit maps to HTTP statuses (http.go).
var (
	// ErrQueueFull is admission control: the queue is at capacity and
	// the job was rejected, not enqueued.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed rejects submissions after Close began.
	ErrClosed = errors.New("service: shutting down")
)

// RequestError marks a submission invalid (unknown graph or program,
// bad params) — a client error, not a service failure.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func reqErrorf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// graphEntry is one resident graph. The symmetrized edge set WCC needs
// is derived lazily and shared by every later WCC job.
type graphEntry struct {
	name   string
	g      *graph.Graph
	origin string

	symMu sync.Mutex
	sym   *graph.Graph
}

// symmetrized returns the shared undirected edge set. A cached copy
// built without in-edges is upgraded in place the first time a
// pull-capable job needs them.
func (e *graphEntry) symmetrized(withInEdges bool) *graph.Graph {
	e.symMu.Lock()
	defer e.symMu.Unlock()
	if e.sym == nil || (withInEdges && !e.sym.HasInEdges()) {
		e.sym = e.g.Symmetrize(withInEdges)
	}
	return e.sym
}

// GraphInfo describes one resident graph for /v1/graphs.
type GraphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    uint64 `json:"edges"`
	Base     uint64 `json:"base"`
	// InEdges says the graph serves in-side reads; MemoryBytes is what is
	// resident now — on a graph whose in-adjacency is derived on demand
	// (a mapped file, an IPG3 read) it grows once, when the first pulling
	// job builds it.
	InEdges     bool   `json:"in_edges"`
	MemoryBytes uint64 `json:"memory_bytes"`
	Origin      string `json:"origin,omitempty"`
}

// Service is the resident query engine. Construct with New, register
// graphs with AddGraph, call Start, then Submit jobs (directly or via
// the HTTP handler); Close drains it.
type Service struct {
	opts  Options
	queue chan *Job

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// runDir is this service's directory under Options.CheckpointRoot,
	// absolute; set by Start, "" without a root.
	runDir string

	mu      sync.Mutex
	graphs  map[string]*graphEntry
	jobs    map[string]*Job
	order   []string // finished job ids, oldest first, for KeepFinished eviction
	nextID  int64
	queued  int
	running int
	started bool
	closed  bool
	cache   *resultCache
}

// New builds a Service with opts applied over the defaults. Call Start
// before submitting; AddGraph works any time before Close.
func New(opts Options) *Service {
	opts.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Service{
		opts:       opts,
		queue:      make(chan *Job, opts.Queue),
		baseCtx:    ctx,
		baseCancel: cancel,
		graphs:     make(map[string]*graphEntry),
		jobs:       make(map[string]*Job),
		cache:      newResultCache(opts.CacheEntries),
	}
}

// Collector returns the telemetry collector every job reports into.
func (s *Service) Collector() *telemetry.Collector { return s.opts.Collector }

// AddGraph registers g under name. The pull transport reads in-edges, so
// an Engine template whose direction can pull requires graphs loaded with
// them.
func (s *Service) AddGraph(name string, g *graph.Graph, origin string) error {
	if name == "" {
		return fmt.Errorf("service: graph name must be non-empty")
	}
	if g == nil || g.N() == 0 {
		return fmt.Errorf("service: graph %q is empty", name)
	}
	if !g.HasInEdges() && s.opts.Engine.Direction != core.DirectionPush {
		return fmt.Errorf("service: graph %q has no in-edges but the engine template's direction is %v", name, s.opts.Engine.Direction)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.graphs[name]; dup {
		return fmt.Errorf("service: graph %q already registered", name)
	}
	s.graphs[name] = &graphEntry{name: name, g: g, origin: origin}
	return nil
}

// Graphs lists the resident graphs, sorted by name.
func (s *Service) Graphs() []GraphInfo {
	s.mu.Lock()
	entries := make([]*graphEntry, 0, len(s.graphs))
	for _, e := range s.graphs {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make([]GraphInfo, len(entries))
	for i, e := range entries {
		out[i] = GraphInfo{
			Name:        e.name,
			Vertices:    e.g.N(),
			Edges:       e.g.M(),
			Base:        uint64(e.g.Base()),
			InEdges:     e.g.HasInEdges(),
			MemoryBytes: e.g.MemoryBytes(),
			Origin:      e.origin,
		}
	}
	return out
}

// Start makes the run directory under the checkpoint root (creating the
// root) and launches the worker pool. Submissions before Start queue up
// but do not execute; Start after Close is an error.
func (s *Service) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.started {
		return fmt.Errorf("service: already started")
	}
	if root := s.opts.CheckpointRoot; root != "" {
		dir, err := newRunDir(root)
		if err != nil {
			return fmt.Errorf("service: checkpoint root: %w", err)
		}
		s.runDir = dir
	}
	s.started = true
	s.wg.Add(s.opts.Workers)
	for i := 0; i < s.opts.Workers; i++ {
		go s.worker()
	}
	return nil
}

// newRunDir makes a fresh directory under root. Job ids restart at j1 in
// every service, so services sharing a root keep their jobs apart this
// way: a later service's j1 must not resume an earlier one's checkpoint.
// The path is made absolute once here, so no job's FileSink has to ask
// for the working directory.
func newRunDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// Submit validates, canonicalises and enqueues one job. A cache hit
// returns an already-finished job record without touching the queue.
// Errors: *RequestError (invalid), ErrQueueFull (admission control),
// ErrClosed (shutting down).
func (s *Service) Submit(req JobRequest) (JobView, error) {
	_, view, err := s.submit(req)
	return view, err
}

// submit is Submit that also returns the admitted job, for a caller
// that waits on it (handleSubmit).
func (s *Service) submit(req JobRequest) (*Job, JobView, error) {
	app, ok := algorithms.LookupApp(req.Program)
	if !ok || !slices.Contains(programs, req.Program) {
		return nil, JobView{}, reqErrorf("unknown program %q (have: %s)", req.Program, strings.Join(programs, " | "))
	}

	s.mu.Lock()
	entry, ok := s.graphs[req.Graph]
	s.mu.Unlock()
	if !ok {
		return nil, JobView{}, reqErrorf("unknown graph %q", req.Graph)
	}

	params, err := canon(entry.g, app, req.Params)
	if err != nil {
		return nil, JobView{}, err
	}
	if params.Direction, err = s.canonDirection(entry, app, req.Params.Direction); err != nil {
		return nil, JobView{}, err
	}
	limits, deadline, err := s.resolveLimits(req.Limits)
	if err != nil {
		return nil, JobView{}, err
	}
	key := cacheKey(req.Graph, req.Program, params)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, JobView{}, ErrClosed
	}

	s.nextID++
	now := time.Now()
	jb := &Job{
		done:     make(chan struct{}),
		id:       fmt.Sprintf("j%d", s.nextID),
		graph:    req.Graph,
		program:  req.Program,
		params:   params,
		limits:   limits,
		noCache:  req.NoCache,
		key:      key,
		entry:    entry,
		app:      app,
		deadline: deadline,
		enqueued: now,
	}

	if !req.NoCache {
		if res, hit := s.cache.get(key); hit {
			jb.state = StateDone
			jb.cached = true
			jb.result = res
			jb.started = now
			jb.finished = now
			s.recordJobLocked(jb)
			return jb, jb.viewLocked(), nil
		}
	}

	jb.state = StateQueued
	select {
	case s.queue <- jb:
	default:
		return nil, JobView{}, ErrQueueFull
	}
	s.jobs[jb.id] = jb
	s.queued++
	return jb, jb.viewLocked(), nil
}

// wait holds the caller until jb is terminal, window has passed, ctx
// ends or Close begins, whichever comes first, and returns jb's view at
// that point. It waits on channels only: the mutex is taken once, for
// the view.
func (s *Service) wait(ctx context.Context, jb *Job, window time.Duration) JobView {
	timer := time.NewTimer(window)
	defer timer.Stop()
	select {
	case <-jb.done:
	case <-timer.C:
	case <-ctx.Done():
	case <-s.baseCtx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return jb.viewLocked()
}

// resolveLimits applies defaults and caps to the request's limits.
func (s *Service) resolveLimits(l Limits) (Limits, time.Duration, error) {
	out := l
	if out.MaxSupersteps < 0 {
		return out, 0, reqErrorf("limits.max_supersteps must be >= 0")
	}
	if out.MaxSupersteps == 0 || out.MaxSupersteps > s.opts.MaxSupersteps {
		if out.MaxSupersteps > s.opts.MaxSupersteps {
			return out, 0, reqErrorf("limits.max_supersteps %d exceeds the service cap %d", out.MaxSupersteps, s.opts.MaxSupersteps)
		}
		out.MaxSupersteps = s.opts.MaxSupersteps
	}
	maxThreads := runtime.GOMAXPROCS(0)
	if out.Threads < 0 {
		return out, 0, reqErrorf("limits.threads must be >= 0")
	}
	if out.Threads > maxThreads {
		out.Threads = maxThreads
	}
	if out.Threads == 0 {
		out.Threads = s.opts.Engine.Threads
	}
	if l.DeadlineMillis < 0 {
		return out, 0, reqErrorf("limits.deadline_ms must be >= 0")
	}
	deadline := time.Duration(l.DeadlineMillis) * time.Millisecond
	if deadline == 0 {
		deadline = s.opts.DefaultDeadline
	}
	if s.opts.MaxDeadline > 0 && (deadline == 0 || deadline > s.opts.MaxDeadline) {
		deadline = s.opts.MaxDeadline
	}
	out.DeadlineMillis = deadline.Milliseconds()
	return out, deadline, nil
}

// Job returns a point-in-time view of one job.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return jb.viewLocked(), true
}

// Jobs lists every remembered job, newest first.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, jb := range s.jobs {
		out = append(out, jb.viewLocked())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Counts reports the queue state for /healthz.
func (s *Service) Counts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.running
}

// CacheLen reports the result-cache occupancy.
func (s *Service) CacheLen() int { return s.cache.len() }

// Close stops intake, cancels running jobs through their contexts (the
// same path a deadline takes — engines abort at the next superstep
// barrier) and waits for the workers, bounded by ctx. Queued jobs end
// cancelled, also on a service that was never started. Once they have
// drained, the run directory is removed if no failed or cancelled job
// left checkpoints in it. Idempotent.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
	} else {
		s.closed = true
		started := s.started
		s.mu.Unlock()
		s.baseCancel()
		close(s.queue)
		if !started {
			// No worker will drain the queue: end its jobs here, each
			// cancelled by execute since the base context is done.
			for jb := range s.queue {
				s.execute(jb)
			}
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.runDir != "" {
			_ = os.Remove(s.runDir) // fails, keeping it, unless empty
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: close timed out with jobs still running: %w", ctx.Err())
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.execute(jb)
	}
}

// execute runs one dequeued job to a terminal state.
func (s *Service) execute(jb *Job) {
	s.mu.Lock()
	s.queued--
	if s.baseCtx.Err() != nil {
		// Drained during shutdown: never started.
		jb.state = StateCancelled
		jb.err = "service shut down before the job started"
		jb.finished = time.Now()
		s.recordFinishedLocked(jb)
		s.mu.Unlock()
		return
	}
	jb.state = StateRunning
	jb.started = time.Now()
	s.running++
	s.mu.Unlock()

	var runCtx context.Context
	var cancel context.CancelFunc
	if jb.deadline > 0 {
		runCtx, cancel = context.WithTimeout(s.baseCtx, jb.deadline)
	} else {
		runCtx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()

	var (
		res    *Result
		rep    core.Report
		runErr error
	)
	scope, err := s.opts.Collector.Job(jb.id)
	if err != nil {
		runErr = fmt.Errorf("telemetry scope: %w", err)
	} else {
		jb.scope = scope
		res, rep, runErr = s.run(runCtx, jb)
		scope.Release()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	jb.finished = time.Now()
	jb.attempts = rep.Attempts
	switch {
	case runErr == nil:
		jb.state = StateDone
		res.Recoveries = rep.Recoveries
		jb.result = res
		if !jb.noCache {
			s.cache.put(jb.key, res)
		}
	case runCtx.Err() != nil:
		jb.state = StateCancelled
		if errors.Is(runCtx.Err(), context.DeadlineExceeded) {
			jb.err = fmt.Sprintf("deadline exceeded after %v: %v", jb.deadline, runErr)
		} else {
			jb.err = fmt.Sprintf("cancelled by shutdown: %v", runErr)
		}
	default:
		jb.state = StateFailed
		jb.err = runErr.Error()
	}
	s.recordFinishedLocked(jb)
}

// recordJobLocked registers an already-finished job (cache hits).
func (s *Service) recordJobLocked(jb *Job) {
	s.jobs[jb.id] = jb
	s.recordFinishedLocked(jb)
}

// recordFinishedLocked is every job's one terminal point: it releases
// jb's waiters, appends jb to the eviction order and forgets the oldest
// finished jobs beyond KeepFinished.
func (s *Service) recordFinishedLocked(jb *Job) {
	close(jb.done)
	s.order = append(s.order, jb.id)
	for len(s.order) > s.opts.KeepFinished {
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}
