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
}

// Engine is one configured instance of the iPregel framework: a graph, a
// program, and one concrete version of each module (selection, addressing,
// combination) chosen by Config.
type Engine[V, M any] struct {
	g       *graph.Graph
	cfg     Config
	prog    Program[V, M]
	addr    addresser
	part    partitioner
	nShards int
	// shards owns all per-vertex state (always len nShards ≥ 1): values,
	// activity flags, mailboxes and frontiers live in engineShard and
	// nowhere else.
	shards  []*engineShard[V, M]
	shift   int // slot = internal index + shift (non-zero only for desolate)
	slots   int
	threads int

	auditSeen []uint8 // slot-indexed scratch for the bypass audits

	// Work lists: scanSpans is the precomputed full-scan split of every
	// shard (where the schedule's balance decision lives, see
	// buildScanSpans), frontierSpanBuf the reusable buffer for the per-
	// superstep frontier split. workBuf holds the per-superstep span
	// selection (runnable shards only); lastSkipped is the shard-skip
	// count it produced (StepStats.SkippedShards).
	scanSpans       []shardSpan
	frontierSpanBuf []shardSpan
	workBuf         []int32
	lastSkipped     int64

	// Direction state (see direction.go). pullOut/pullFlag are the pull
	// transport's global-slot-indexed outbox arrays (nil on push-only
	// engines), serving every pull superstep without reallocating: each
	// vertex writes only its own slot, so the outboxes are shard-aware
	// by construction. curDir is the running
	// superstep's transport; frontierEdges the out-edge count of the
	// upcoming frontier (adaptive); pullEdgeCut the switch threshold in
	// edges. dirSums is countFrontierEdges' per-worker scratch.
	pullOut     []M
	pullFlag    []uint8
	curDir      Direction
	lastDir     Direction
	haveLastDir bool
	dirSwitched bool

	frontierEdges uint64
	pullEdgeCut   uint64
	dirSums       []uint64

	// hubCut is the out-degree above which a push broadcast's scatter is
	// deferred and fanned out as parallel subtasks (Config.HubSplit);
	// 0 disables splitting. hubTaskBuf is hubScatterPhase's reusable
	// task list.
	hubCut     int
	hubTaskBuf []hubTask

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
	// casRetriesSeen is the cumulative mailbox contention-retry count
	// already attributed to earlier supersteps (StepStats.CASRetries is
	// the per-superstep delta).
	casRetriesSeen uint64
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
// compatible with the graph: the pull combiner needs in-edges, direct
// mapping needs base-0 identifiers.
func New[V, M any](g *graph.Graph, cfg Config, prog Program[V, M]) (*Engine[V, M], error) {
	if prog.Compute == nil {
		return nil, errors.New("core: Program.Compute is required")
	}
	if prog.Combine == nil {
		return nil, errors.New("core: Program.Combine is required")
	}
	if cfg.Direction < DirectionPush || cfg.Direction > DirectionAdaptive {
		return nil, fmt.Errorf("core: unknown direction %s", cfg.Direction)
	}
	if cfg.Combiner == CombinerPull {
		// The pull combiner's inbox takes no lock, which is legal only
		// while every deposit is the owner-only collect of a pull
		// superstep (§6.2) — so selecting it fixes the direction.
		if cfg.Direction == DirectionAdaptive {
			return nil, fmt.Errorf("core: CombinerPull's lock-free inbox cannot take the concurrent deliveries of a push superstep, so it cannot run Direction adaptive; pick an inbox combiner (mutex/spinlock/atomic) for adaptive runs")
		}
		cfg.Direction = DirectionPull
	}
	if cfg.Direction != DirectionPush && !g.HasInEdges() {
		return nil, fmt.Errorf("core: pull-direction supersteps fetch from in-neighbours (paper §6.2); load the graph with in-edges (Config.Direction pull/adaptive, or CombinerPull)")
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
	if cfg.SenderCombining && cfg.Direction == DirectionPull {
		return nil, fmt.Errorf("core: sender-side combining pre-combines push deliveries; an all-pull run (Config.Direction pull, or CombinerPull) has none — its outboxes are already contention-free (§6.2)")
	}
	if cfg.DirectionThreshold < 0 || cfg.DirectionThreshold > 1 {
		return nil, fmt.Errorf("core: Config.DirectionThreshold is a fraction of |E| and must be in [0, 1] (0 means the default %v), got %v", DefaultDirectionThreshold, cfg.DirectionThreshold)
	}
	if cfg.DirectionThreshold != 0 && cfg.Direction != DirectionAdaptive {
		return nil, fmt.Errorf("core: Config.DirectionThreshold tunes the per-superstep switch of Direction adaptive and has no effect on a %s run; set Direction adaptive or leave the threshold 0", cfg.Direction)
	}
	if cfg.HubDegreeCut < 0 {
		return nil, fmt.Errorf("core: Config.HubDegreeCut must be non-negative (0 derives the p99.9 out-degree), got %d", cfg.HubDegreeCut)
	}
	if cfg.HubDegreeCut > 0 && !cfg.HubSplit {
		return nil, fmt.Errorf("core: Config.HubDegreeCut sets the degree above which HubSplit splits a broadcast and has no effect without it; set HubSplit or leave the cut 0")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: Config.Shards must be non-negative (0 means 1), got %d", cfg.Shards)
	}
	addr, err := newAddresser(g, cfg.Addressing)
	if err != nil {
		return nil, err
	}
	e := &Engine[V, M]{
		g:       g,
		cfg:     cfg,
		prog:    prog,
		addr:    addr,
		shift:   addr.shift(),
		slots:   addr.slots(),
		threads: cfg.ResolvedThreads(),
	}
	e.part, err = newPartitioner(cfg, e.slots)
	if err != nil {
		return nil, err
	}
	e.nShards = e.part.shards()
	e.shards = make([]*engineShard[V, M], e.nShards)
	for s := range e.shards {
		if e.shards[s], err = newEngineShard[V, M](cfg, e.part, s, prog.Combine); err != nil {
			return nil, err
		}
	}
	e.buildScanSpans()
	e.workers = make([]*Context[V, M], e.threads)
	for i := range e.workers {
		w := &Context[V, M]{e: e, worker: i}
		e.workers[i] = w
		if cfg.SelectionBypass {
			w.enrolled = make([][]int32, e.nShards)
		}
		if e.nShards == 1 {
			// One shard has no cross-shard traffic to batch: sends go
			// straight to its mailbox, or through the sender cache.
			w.direct = e.shards[0].mb
			if cfg.SenderCombining {
				w.cache = newSenderCache[M](prog.Combine)
			}
			continue
		}
		// The routing layer subsumes the single sender-combining cache:
		// per-destination-shard caches combine worker-locally whether or
		// not SenderCombining is set.
		w.route = newShardRouter[M](prog.Combine, e.nShards)
		w.activated = make([]int64, e.nShards)
		w.halted = make([]int64, e.nShards)
		if cfg.Direction != DirectionPush {
			// Pull deliveries bypass the routing layer (the collect phase
			// deposits owner-locally), so shard-skipping needs its own
			// per-worker delivery counters to keep runnable exact.
			w.pulled = make([]uint64, e.nShards)
		}
	}
	if cfg.Direction != DirectionPush {
		e.pullOut = make([]M, e.slots)
		e.pullFlag = make([]uint8, e.slots)
		if cfg.Direction == DirectionAdaptive {
			thr := cfg.DirectionThreshold
			if thr == 0 {
				thr = DefaultDirectionThreshold
			}
			e.pullEdgeCut = uint64(thr * float64(g.M()))
			if e.pullEdgeCut == 0 {
				e.pullEdgeCut = 1 // an empty frontier never forces pull
			}
		}
	}
	if cfg.HubSplit {
		cut := cfg.HubDegreeCut
		if cut == 0 {
			cut = graph.OutDegreeQuantile(g, 0.999)
		}
		if cut < 1 {
			cut = 1
		}
		e.hubCut = cut
	}
	e.agg = newAggregators(e.threads)
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
// and the registered Observers see the full lifecycle.
func (e *Engine[V, M]) RunContext(ctx context.Context) (Report, error) {
	if e.ran {
		return Report{}, errors.New("core: engine already ran")
	}
	if orphans := e.agg.unconsumed(); len(orphans) > 0 {
		return Report{}, fmt.Errorf("core: checkpoint carries aggregators %v the program never registered (program/checkpoint mismatch)", orphans)
	}
	e.ran = true
	e.report.Version = e.cfg.VersionName()
	e.report.FirstSuperstep = e.firstSuperstep
	start := time.Now()
	if e.nShards > 1 {
		// Seed the shard-skipping activity summary: zero for a fresh
		// engine, the restored flags/mailboxes for a resumed one.
		e.initShardActivity()
	}
	// Seed the adaptive direction decision the same way: the density is
	// recomputed from current engine state, so a Restored run re-derives
	// exactly the per-superstep choices the original made at this barrier.
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
		if e.busy != nil {
			clear(e.busy)
		}

		var ranTotal int64
		region(ctx, "ipregel.compute", func() { ranTotal = e.computePhase() })
		if e.hubCut > 0 {
			// Deferred hub scatters run before the router/cache drains so
			// their pushes are flushed by the same barrier machinery.
			region(ctx, "ipregel.hubscatter", e.hubScatterPhase)
		}
		if e.nShards > 1 {
			region(ctx, "ipregel.route", e.drainRouters)
		} else if e.cfg.SenderCombining {
			region(ctx, "ipregel.drain", e.drainSenderCaches)
		}

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
			// Only the vertices that ran can have left mail unread: the
			// frontier under selection bypass, anyone on a full scan.
			fullScan := e.superstep == 0 || !e.cfg.SelectionBypass
			for _, sh := range e.shards {
				sh.mb.swap(sh.frontier, fullScan)
			}
			if !e.agg.empty() {
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
		if e.nShards > 1 {
			if err := e.updateShardActivity(step); err != nil {
				return e.finishRun(start, err)
			}
		}

		if e.cfg.SelectionBypass {
			if activeAfter > 0 {
				return e.finishRun(start, ErrBypassViolation)
			}
			e.swapFrontiers()
			if e.cfg.CheckInvariants {
				if err := e.auditBypass(); err != nil {
					return e.finishRun(start, err)
				}
			}
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

// gatherStepStats merges the workers' per-superstep counters into one
// StepStats record. It runs single-threaded at the barrier (all workers
// have joined), on the completed-superstep path and on the two abort
// paths that stop mid-superstep (partial=true: a contained compute
// panic, an invariant violation).
func (e *Engine[V, M]) gatherStepStats(stepStart time.Time, ran int64, partial bool) StepStats {
	var msgs, localCombines uint64
	var votes int64
	for _, w := range e.workers {
		msgs += w.msgs
		votes += w.votes
		if w.cache != nil {
			localCombines += w.cache.combined
		}
		if w.route != nil {
			localCombines += w.route.combined
		}
	}
	step := StepStats{
		Ran:               ran,
		Messages:          msgs,
		Active:            ran - votes,
		LocalCombines:     localCombines,
		Duration:          time.Since(stepStart),
		Partial:           partial,
		Direction:         e.curDir,
		DirectionSwitched: e.dirSwitched,
	}
	for _, w := range e.workers {
		step.HubSplitTasks += w.hubTasks
	}
	var retries uint64
	for _, sh := range e.shards {
		retries += sh.mb.contentionRetries()
	}
	if retries > e.casRetriesSeen {
		step.CASRetries = retries - e.casRetriesSeen
		e.casRetriesSeen = retries
	}
	if e.cfg.SelectionBypass {
		for _, sh := range e.shards {
			step.NextFrontier += int64(len(sh.frontierNext))
		}
	}
	if e.busy != nil {
		step.WorkerBusy = append([]time.Duration(nil), e.busy...)
	}
	if e.nShards > 1 {
		step.ShardMessages = make([]uint64, e.nShards)
		step.SkippedShards = e.lastSkipped
		for _, w := range e.workers {
			step.CrossShardMessages += w.route.cross + w.pulledCross
			for d, n := range w.route.sent {
				step.ShardMessages[d] += n
			}
			// Pull-superstep deliveries bypass the routers; the collect
			// phase counts them per destination shard so the shard-skip
			// decision (updateShardActivity) stays exact.
			for d, n := range w.pulled {
				step.ShardMessages[d] += n
			}
		}
		if e.cfg.SelectionBypass {
			step.ShardNextFrontier = make([]int64, e.nShards)
			for d, sh := range e.shards {
				step.ShardNextFrontier[d] = int64(len(sh.frontierNext))
			}
		}
	}
	return step
}

// recordStep appends one superstep record, folds it into the run totals
// and notifies the observers — the single bookkeeping point shared by
// the completed-superstep path and the mid-superstep abort paths.
func (e *Engine[V, M]) recordStep(step StepStats) {
	e.report.Steps = append(e.report.Steps, step)
	e.report.TotalMessages += step.Messages
	e.report.TotalLocalCombines += step.LocalCombines
	e.observeSuperstepEnd(e.superstep, step)
}

// finishRun seals the report on every exit path: Supersteps, Duration
// and the converged/aborted marker are always set, OnAbort fires exactly
// once on aborted runs, and OnRunEnd fires exactly once per run, last.
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
		for _, o := range e.observers {
			o.OnAbort(e.superstep, e.report.AbortReason, err)
		}
	} else {
		e.report.Converged = true
	}
	for _, o := range e.observers {
		o.OnRunEnd(e.report, err)
	}
	return e.report, err
}

// region wraps one engine phase in a runtime/trace region so that phase
// boundaries (compute, drain, gather, collect, barrier) show up in `go
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
// user program, or the framework's own misuse panics such as Send on the
// pull combiner) is contained — the offending worker stops, the phase
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
	sh, local := e.slotShard(e.addr.locate(id))
	return sh.values[local]
}

// ValuesDense copies the vertex values out in internal-index order
// (index i holds the value of external identifier Base()+i).
func (e *Engine[V, M]) ValuesDense() []V {
	out := make([]V, e.g.N())
	for _, sh := range e.shards {
		sh.scan(0, int32(len(sh.values)), e.shift, func(local, global int32) {
			out[int(global)-e.shift] = sh.values[local]
		})
	}
	return out
}

// Graph returns the engine's graph.
func (e *Engine[V, M]) Graph() *graph.Graph { return e.g }

// Config returns the engine's configuration.
func (e *Engine[V, M]) Config() Config { return e.cfg }

// FootprintBytes reports the engine's own heap bytes — vertex values,
// activity flags, the mailbox arrays of the selected combiner version,
// the pull outboxes, the addressing and partition structures, the bypass
// state and the workers' combining caches. The O(threads·shards)
// scheduling work lists are not per-vertex state and are not counted.
// The graph's CSR arrays are excluded, matching the paper's separation
// of "graph binary size" from framework overhead (§7.4.2); add
// graph.MemoryBytes() for the total.
func (e *Engine[V, M]) FootprintBytes() uint64 {
	var v V
	var m M
	b := e.addr.overheadBytes() + e.part.overheadBytes()
	for _, sh := range e.shards {
		b += uint64(len(sh.values)) * uint64(unsafe.Sizeof(v))
		b += uint64(len(sh.active))
		b += sh.mb.footprintBytes()
		b += uint64(len(sh.inNext)+cap(sh.frontier)+cap(sh.frontierNext)) * 4
	}
	b += uint64(len(e.pullOut))*uint64(unsafe.Sizeof(m)) + uint64(len(e.pullFlag))
	for _, w := range e.workers {
		if w.cache != nil {
			b += w.cache.footprintBytes()
		}
		if w.route != nil {
			b += w.route.footprintBytes()
		}
	}
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
