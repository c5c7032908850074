package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/trace"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"ipregel/internal/graph"
)

// Program bundles the two user-defined functions of paper Fig. 4.
type Program[V, M any] struct {
	// Compute is run on every selected vertex each superstep (IP_compute).
	Compute ComputeFunc[V, M]
	// Combine merges a new message into an occupied mailbox (IP_combine).
	// It must be commutative and associative.
	Combine CombineFunc[M]
	// Aggregators are the program's named global reductions, in
	// declaration order (the order checkpoints persist them in).
	Aggregators []Aggregator
}

// Engine is one configured instance of the iPregel framework: a graph, a
// program, and one concrete version of the selection and combination
// modules chosen by Config. Addressing is offset mapping (§5): a vertex's
// slot is its internal graph index, slot = id − base.
type Engine[V, M any] struct {
	g       *graph.Graph
	cfg     Config
	prog    Program[V, M]
	threads int

	// Per-vertex state: one set of flat, slot-indexed arrays — the Go
	// equivalent of the paper's plain-struct vertices (§3.2) — and the one
	// inbox (§6.3): buf, the buffers every version keeps, read, swapped
	// and checkpointed without a dynamic call (so the program's message
	// variable stays on its stack), and mb, the configured version's
	// delivery loop over them. active is one bit per slot, 64 to a word
	// like the occupancy, written by the scan that ran the word's slots
	// (runWords); it is nil under selection bypass, where no barrier leaves
	// a vertex active.
	values []V
	active []uint64
	buf    *pushBuffers[M]
	mb     mailbox[M]

	// Selection bypass (§4; nil otherwise): the slots running this
	// superstep and those enrolled for the next — on a push superstep,
	// exactly the next-inbox slots that filled (mailbox.scatter) — and
	// whether this superstep runs them in slot order (computePhase). A
	// frontier past listCap entries is dense: no list, the current inbox's
	// occupancy is the frontier (dense; denseNext for the one gathered).
	// nextCount is the gathered frontier's size either way.
	frontier         []int32
	frontierNext     []int32
	slotOrder        bool
	dense, denseNext bool
	nextCount        int
	listCap          int

	auditSeen []uint8 // slot-indexed scratch for the frontier audit

	// Work lists (schedule.go): scanSpans is the full-scan split of the
	// slots, in whole 64-slot words; frontierSpanBuf the reusable buffer
	// for the per-superstep frontier split.
	scanSpans       []span
	frontierSpanBuf []span

	// Direction state (see direction.go). pullOut/pullFlag are the pull
	// transport's slot-indexed outbox arrays (nil on push-only engines),
	// serving every pull superstep without reallocating: each vertex
	// writes only its own slot; pullEnrol (bypass only) the CAS flags of
	// a pull broadcast's enrolments, cleared by each slot's collect.
	// curDir is the running superstep's transport; frontierEdges the
	// out-edge count of the upcoming frontier (adaptive); pullEdgeCut the
	// switch threshold in edges. dirSums is countFrontierEdges' scratch.
	pullOut  []M
	pullFlag []uint8
	// sumOut is pullOut itself when the program combines with Sum (nil
	// otherwise): collectSlot's fold adds over it without a Combine call.
	sumOut    []float64
	pullEnrol []atomic.Uint32
	curDir    Direction

	frontierEdges uint64
	pullEdgeCut   uint64
	dirSums       []uint64

	workers    []*Context[V, M]
	agg        *aggregators
	busy       []time.Duration // per-worker busy time this superstep (TrackWorkerTime)
	checkpoint *Checkpointer[V, M]
	observers  []Observer

	superstep int
	// firstSuperstep is the absolute number of the first superstep this
	// engine executes: 0 for a fresh engine, the checkpoint barrier for a
	// Restored one. It keeps superstep numbering (observer events, the
	// Report's Steps indices) globally consistent across resumes.
	firstSuperstep int
	report         Report

	ran      bool
	panicked atomic.Value // first recovered panic, if any
}

// ErrBypassViolation is returned when an application run under selection
// bypass leaves vertices active at the end of a superstep — the situation
// (e.g. PageRank) in which the paper states the technique is not
// applicable (§4, note).
var ErrBypassViolation = errors.New("core: selection bypass requires every vertex to vote to halt each superstep (paper §4); a vertex stayed active")

// ErrMaxSupersteps is returned when Config.MaxSupersteps is exceeded.
var ErrMaxSupersteps = errors.New("core: superstep limit exceeded")

// New builds an engine. It validates that the chosen module versions are
// compatible with the graph: the pull transport needs in-edges, selection
// bypass the out-adjacency.
func New[V, M any](g *graph.Graph, cfg Config, prog Program[V, M]) (*Engine[V, M], error) {
	if prog.Compute == nil {
		return nil, errors.New("core: Program.Compute is required")
	}
	if prog.Combine == nil {
		return nil, errors.New("core: Program.Combine is required")
	}
	if cfg.Threads < 0 {
		return nil, fmt.Errorf("core: Config.Threads is %d; want 0 (GOMAXPROCS) or more", cfg.Threads)
	}
	if cfg.Direction < DirectionPush || cfg.Direction > DirectionAdaptive {
		return nil, fmt.Errorf("core: unknown direction %s", cfg.Direction)
	}
	if cfg.Direction != DirectionPush && !g.HasInEdges() {
		return nil, fmt.Errorf("core: pull-direction supersteps fetch from in-neighbours (paper §6.2); load the graph with in-edges (Config.Direction pull or adaptive)")
	}
	if cfg.Direction == DirectionPull {
		// Every superstep collects over in-neighbours: an in-adjacency
		// that is derived on demand is built here, not inside superstep
		// 0's timing. Adaptive runs build it at their first pull
		// superstep (beginSuperstepDirection); push runs never do.
		g = g.WithInEdges()
	}
	if cfg.SelectionBypass && !g.HasOutAdjacency() {
		return nil, fmt.Errorf("core: selection bypass enrols out-neighbours (paper §4) and needs the out-adjacency, which this graph stripped")
	}
	for i, o := range cfg.Observers {
		if o == nil {
			return nil, fmt.Errorf("core: Config.Observers[%d] is nil", i)
		}
	}
	e := &Engine[V, M]{
		g:       g,
		cfg:     cfg,
		prog:    prog,
		threads: cfg.ResolvedThreads(),
	}
	n := g.N()
	var err error
	if e.mb, e.buf, err = newMailbox[M](cfg, n, prog.Combine); err != nil {
		return nil, err
	}
	e.values = make([]V, n)
	if !cfg.SelectionBypass {
		e.active = make([]uint64, occupancyWords(n))
	}
	e.listCap = listCap(n)
	e.scanSpans = cutScanSpans(n, e.threads)
	e.workers = make([]*Context[V, M], e.threads)
	for i := range e.workers {
		e.workers[i] = &Context[V, M]{e: e, worker: i}
		if cfg.SelectionBypass {
			e.workers[i].enrolled = make([]int32, 0, FrontierListCap(n))
		}
	}
	if cfg.Direction != DirectionPush {
		e.pullOut = make([]M, n)
		e.pullFlag = make([]uint8, n)
		if sameFunc(prog.Combine, Sum) {
			e.sumOut, _ = any(e.pullOut).([]float64)
		}
		if cfg.SelectionBypass {
			e.pullEnrol = make([]atomic.Uint32, n)
		}
		if cfg.Direction == DirectionAdaptive {
			// An empty frontier never forces pull.
			e.pullEdgeCut = max(1, uint64(AdaptiveThreshold*float64(g.M())))
		}
	}
	if e.agg, err = newAggregators(e.threads, prog.Aggregators); err != nil {
		return nil, err
	}
	if cfg.TrackWorkerTime {
		e.busy = make([]time.Duration, e.threads)
	}
	e.observers = append([]Observer(nil), cfg.Observers...)
	return e, nil
}

// Run executes supersteps until no vertex is active and no message is in
// flight, returning per-run statistics. An Engine can run only once.
func (e *Engine[V, M]) Run() (Report, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: ctx is checked at
// every superstep barrier, and a cancelled run returns ctx's error with
// the statistics gathered so far. Combine with a checkpointer to make
// long computations resumable after an operator-initiated stop.
//
// Every exit path — convergence, cancellation, ErrMaxSupersteps, a
// contained compute panic, ErrBypassViolation, an *InvariantError, a
// checkpoint failure — goes through the same sealing step, so the
// returned Report is always internally consistent (TotalMessages equals
// the sum over Steps, Duration covers exactly the recorded supersteps)
// and the configured Observers see the full lifecycle.
func (e *Engine[V, M]) RunContext(ctx context.Context) (Report, error) {
	if e.ran {
		return Report{}, errors.New("core: engine already ran")
	}
	e.ran = true
	e.report.Version = e.cfg.VersionName()
	e.report.FirstSuperstep = e.firstSuperstep
	start := time.Now()
	// Seed the adaptive direction decision: the density is recomputed
	// from current engine state, so a Restored run re-derives exactly the
	// per-superstep choices the original made at this barrier.
	e.reseedFrontierDensity()

	for {
		if err := ctx.Err(); err != nil {
			return e.finishRun(start, fmt.Errorf("core: run cancelled at superstep %d: %w", e.superstep, err))
		}
		if e.cfg.MaxSupersteps > 0 && e.superstep >= e.cfg.MaxSupersteps {
			return e.finishRun(start, fmt.Errorf("%w (%d)", ErrMaxSupersteps, e.cfg.MaxSupersteps))
		}
		e.beginSuperstepDirection(ctx)
		stepStart := time.Now()
		e.observeSuperstepStart(e.superstep)
		for _, w := range e.workers {
			w.resetSuperstep()
		}
		clear(e.busy)

		var ranTotal int64
		region(ctx, "ipregel.compute", func() { ranTotal = e.computePhase() })
		if e.cfg.SelectionBypass {
			region(ctx, "ipregel.gather", e.gatherFrontier)
		}
		if e.curDir == DirectionPull {
			region(ctx, "ipregel.collect", e.collectPull)
		}
		if e.cfg.CheckInvariants {
			if err := e.auditInvariants(); err != nil {
				// The superstep never reached the buffer swap: record what
				// the workers had done as a partial step so the report's
				// totals match the engine's actual activity.
				e.recordStep(e.gatherStepStats(stepStart, ranTotal, true))
				return e.finishRun(start, err)
			}
		}
		region(ctx, "ipregel.barrier", func() {
			// Only the vertices that ran can have left mail set: a listed
			// frontier under selection bypass, anyone on a full scan or
			// from a dense frontier.
			e.buf.swap(e.frontier, e.superstep == 0 || !e.cfg.SelectionBypass || e.dense)
			if len(e.agg.decl) > 0 {
				e.agg.barrier()
			}
		})
		if p := e.panicked.Load(); p != nil {
			e.recordStep(e.gatherStepStats(stepStart, ranTotal, true))
			return e.finishRun(start, fmt.Errorf("core: compute panicked at superstep %d: %v", e.superstep, p))
		}

		step := e.gatherStepStats(stepStart, ranTotal, false)
		e.recordStep(step)
		activeAfter := step.Active

		if e.cfg.SelectionBypass {
			if activeAfter > 0 {
				return e.finishRun(start, e.bypassViolation())
			}
			// Nothing to reset: the swap emptied the next inbox, and each
			// collect cleared its slot's pull flag.
			e.frontier, e.frontierNext = e.frontierNext, e.frontier[:0]
			e.dense = e.denseNext
		}

		e.superstep++
		if step.Messages == 0 && activeAfter == 0 {
			break
		}
		// The next superstep's direction decision reads the post-swap
		// state (current mail, promoted frontier), which a checkpoint of
		// this barrier captures — so a resumed run re-derives it exactly.
		e.reseedFrontierDensity()
		// Checkpoint only barriers the run will continue from: a terminal
		// (converged) barrier has nothing to resume, and a checkpoint of
		// it would make a later Restore replay one empty superstep.
		if err := e.maybeCheckpoint(); err != nil {
			return e.finishRun(start, err)
		}
	}
	return e.finishRun(start, nil)
}

// bypassViolation names the vertex that broke the bypass contract at
// this superstep: the lowest of the workers' first slots left awake.
func (e *Engine[V, M]) bypassViolation() error {
	slot := int32(-1)
	for _, w := range e.workers {
		if w.awake >= 0 && (slot < 0 || w.awake < slot) {
			slot = w.awake
		}
	}
	return fmt.Errorf("%w: vertex %d did not vote to halt at superstep %d", ErrBypassViolation, e.g.ExternalID(int(slot)), e.superstep)
}

// gatherStepStats merges the workers' per-superstep counters into one
// StepStats record. It runs single-threaded at the barrier (all workers
// have joined), on the completed-superstep path and on the two abort
// paths that stop mid-superstep (partial=true: a contained compute
// panic, an invariant violation).
func (e *Engine[V, M]) gatherStepStats(stepStart time.Time, ran int64, partial bool) StepStats {
	var msgs uint64
	var votes int64
	for _, w := range e.workers {
		msgs += w.msgs
		votes += w.votes
	}
	step := StepStats{
		Ran:          ran,
		Messages:     msgs,
		Active:       ran - votes,
		NextFrontier: int64(e.nextCount),
		Duration:     time.Since(stepStart),
		Partial:      partial,
		Direction:    e.curDir,
		SlotOrder:    e.slotOrder,
	}
	if n := len(e.report.Steps); n > 0 {
		step.DirectionSwitched = e.report.Steps[n-1].Direction != e.curDir
	}
	if e.busy != nil {
		step.WorkerBusy = append([]time.Duration(nil), e.busy...)
	}
	return step
}

// recordStep appends one superstep record, folds it into the run totals
// and notifies the observers — the single bookkeeping point shared by
// the completed-superstep path and the mid-superstep abort paths.
func (e *Engine[V, M]) recordStep(step StepStats) {
	e.report.Steps = append(e.report.Steps, step)
	e.report.TotalMessages += step.Messages
	e.observeSuperstepEnd(e.superstep, step)
}

// finishRun seals the report on every exit path: Supersteps, Duration
// and the converged/aborted marker are always set, and OnRunEnd fires
// exactly once per run, last.
func (e *Engine[V, M]) finishRun(start time.Time, err error) (Report, error) {
	completed := 0
	for _, s := range e.report.Steps {
		if !s.Partial {
			completed++
		}
	}
	e.report.Supersteps = e.firstSuperstep + completed
	e.report.Duration = time.Since(start)
	if err != nil {
		e.report.Aborted = true
		e.report.AbortReason = err.Error()
	} else {
		e.report.Converged = true
	}
	for _, o := range e.observers {
		o.OnRunEnd(e.report, err)
	}
	return e.report, err
}

// region wraps one engine phase in a runtime/trace region so that phase
// boundaries (compute, gather, collect, barrier) show up in `go
// tool trace` output whenever tracing is active — a `go test -trace`
// run, trace.Start, or the /debug/pprof/trace endpoint the telemetry
// layer serves. With tracing off the guard is one atomic load per phase
// per superstep; nothing is added to the per-vertex hot path.
func region(ctx context.Context, name string, f func()) {
	if trace.IsEnabled() {
		trace.WithRegion(ctx, name, f)
		return
	}
	f()
}

// guard wraps one worker's share of a phase: a panic in body (a buggy
// user program, or the framework's own misuse panics such as Send on a
// pull superstep) is contained — the offending worker stops, the phase
// completes, and Run reports the panic as an error instead of tearing the
// process down.
func (e *Engine[V, M]) guard(w int, loop func()) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked.CompareAndSwap(nil, fmt.Sprintf("%v", r))
		}
	}()
	if e.busy != nil {
		t0 := time.Now()
		defer func() { e.busy[w] += time.Since(t0) }()
	}
	loop()
}

// dispatch is the fork-join of the paper's parallel loops (§4): it runs
// perWorker(0..t-1) on freshly forked goroutines and blocks until all
// complete.
func (e *Engine[V, M]) dispatch(t int, perWorker func(w int)) {
	var wg sync.WaitGroup
	wg.Add(t)
	for w := 0; w < t; w++ {
		go func(w int) {
			defer wg.Done()
			perWorker(w)
		}(w)
	}
	wg.Wait()
}

// Value returns the final user value of the vertex with external
// identifier id. Valid after Run.
func (e *Engine[V, M]) Value(id graph.VertexID) V {
	return e.values[id-e.g.Base()]
}

// ValuesDense copies the vertex values out in internal-index order
// (index i holds the value of external identifier Base()+i).
func (e *Engine[V, M]) ValuesDense() []V {
	return append([]V(nil), e.values...)
}

// Graph returns the engine's graph.
func (e *Engine[V, M]) Graph() *graph.Graph { return e.g }

// Config returns the engine's configuration.
func (e *Engine[V, M]) Config() Config { return e.cfg }

// FootprintBytes reports the engine's own heap bytes — vertex values,
// activity bits, the mailbox arrays of the selected combiner version,
// the pull outboxes and the bypass state: the frontier lists and the
// workers' enrolment buffers. The
// span lists (at most 16 per thread, 8 B each) are not per-vertex state
// and are not counted.
// The graph's CSR arrays are excluded, matching the paper's separation
// of "graph binary size" from framework overhead (§7.4.2); add
// graph.MemoryBytes() for the total.
func (e *Engine[V, M]) FootprintBytes() uint64 {
	var v V
	var m M
	b := e.buf.buffersBytes() + e.mb.lockBytes()
	b += uint64(len(e.values))*uint64(unsafe.Sizeof(v)) + uint64(len(e.active))*8
	b += uint64(cap(e.frontier)+cap(e.frontierNext)) * 4
	for _, w := range e.workers {
		b += uint64(cap(w.enrolled)) * 4
	}
	b += uint64(len(e.pullOut))*uint64(unsafe.Sizeof(m)) + uint64(len(e.pullFlag)) + uint64(len(e.pullEnrol))*4
	return b
}

// Run is the package-level convenience: build an engine and run it.
func Run[V, M any](g *graph.Graph, cfg Config, prog Program[V, M]) (*Engine[V, M], Report, error) {
	e, err := New(g, cfg, prog)
	if err != nil {
		return nil, Report{}, err
	}
	rep, err := e.Run()
	return e, rep, err
}
