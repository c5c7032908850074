package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ipregel/internal/graph"
)

// engineShard is the engine's only unit of per-vertex state: its own
// mailbox instance, values/active segments and frontier buffers, all
// indexed by LOCAL slot (0..localSlots-1). Because every array is owned
// by exactly one shard, intra-shard delivery contends only with
// deliveries to the same shard; other shards' mailboxes live on
// different cache lines entirely. An engine with Config.Shards <= 1 is
// the one-shard case of the same structure (local slot == global slot),
// not a separate code path.
type engineShard[V, M any] struct {
	id int32
	mb mailbox[M]
	// The mailbox's concrete read side, resolved once so that reading
	// mail costs no dynamic call (and the program's message variable
	// stays on its stack): buf on the plain and lock-based versions, cas
	// on the atomic one.
	buf *pushBuffers[M]
	cas *atomicMailbox[M]

	// values and active are local-slot indexed; indexing them with a
	// global slot is the bug class the shardlocal analyzer flags.
	//
	//ipregel:shardlocal
	values []V
	//ipregel:shardlocal
	active []uint8

	// inNext holds the CAS flags deduplicating this shard's next-frontier
	// entries (selection bypass, §4); local-slot indexed, element access
	// through sync/atomic.
	//
	//ipregel:atomic
	//ipregel:shardlocal
	inNext []uint32

	// frontier and frontierNext hold LOCAL slots (the shard is implied);
	// checkpointing and audits translate through global.
	frontier     []int32
	frontierNext []int32

	// Local→global translation: a contiguous shard (one shard, or range
	// partitioning) owns the global slots [base, base+len(values)) and
	// globals is nil; a scattered one (hash partitioning) looks each
	// local slot up in globals.
	base    int32
	globals []int32

	// activeCount mirrors the number of set active flags, maintained
	// incrementally from the workers' per-shard activation/halt deltas at
	// each barrier (audited against a full scan under CheckInvariants).
	// runnable caches the shard-skip decision for the next superstep:
	// a shard with no active vertex and no delivery last superstep has
	// nothing to run, so the scan phase drops its spans entirely. Both
	// are maintained only when there is more than one shard to skip.
	activeCount int64
	runnable    bool
}

func newEngineShard[V, M any](cfg Config, part partitioner, s int, combine CombineFunc[M]) (*engineShard[V, M], error) {
	localN := part.localSlots(s)
	sh := &engineShard[V, M]{
		id:       int32(s),
		values:   make([]V, localN),
		active:   make([]uint8, localN),
		globals:  part.table(s),
		runnable: true,
	}
	if sh.globals == nil && localN > 0 {
		sh.base = int32(part.globalOf(s, 0))
	}
	var err error
	if sh.mb, err = newMailbox[M](cfg, localN, combine); err != nil {
		return nil, err
	}
	if sh.buf = sh.mb.buffers(); sh.buf == nil {
		sh.cas = sh.mb.(*atomicMailbox[M])
	}
	if cfg.SelectionBypass {
		sh.inNext = make([]uint32, localN)
	}
	return sh, nil
}

// take and hasMail are the mailbox's take and hasCurrent on the concrete
// version.
func (sh *engineShard[V, M]) take(local int, m *M) bool {
	if sh.buf != nil {
		return sh.buf.take(local, m)
	}
	return sh.cas.take(local, m)
}

func (sh *engineShard[V, M]) hasMail(local int) bool {
	if sh.buf != nil {
		return sh.buf.hasCurrent(local)
	}
	return sh.cas.hasCurrent(local)
}

// global translates one of this shard's local slots to its global slot.
func (sh *engineShard[V, M]) global(local int32) int32 {
	if sh.globals != nil {
		return sh.globals[local]
	}
	return sh.base + local
}

// scan calls visit for every local slot in [lo, hi) that holds a vertex
// (the desolate dead zone below shift holds none, §5). The translation
// state is read once per call, so on a contiguous shard the per-slot
// cost is one addition.
func (sh *engineShard[V, M]) scan(lo, hi int32, shift int, visit func(local, global int32)) {
	base, globals := sh.base, sh.globals
	for local := lo; local < hi; local++ {
		global := base + local
		if globals != nil {
			global = globals[local]
		}
		if int(global) >= shift {
			visit(local, global)
		}
	}
}

// each calls visit for every local slot listed (a frontier segment).
func (sh *engineShard[V, M]) each(locals []int32, visit func(local, global int32)) {
	for _, local := range locals {
		visit(local, sh.global(local))
	}
}

// tryMarkNext claims local's membership of this shard's next frontier.
// Test-and-test-and-set: most messages target already-enrolled vertices,
// so the common path is a single relaxed load rather than a contended
// compare-and-swap.
func (sh *engineShard[V, M]) tryMarkNext(local int) bool {
	p := &sh.inNext[local]
	if atomic.LoadUint32(p) != 0 {
		return false
	}
	return atomic.CompareAndSwapUint32(p, 0, 1)
}

// slotShard resolves a global slot to its owning shard and local slot.
// With one shard the translation is the identity and the partitioner is
// never consulted.
func (e *Engine[V, M]) slotShard(slot int) (*engineShard[V, M], int) {
	if e.nShards == 1 {
		return e.shards[0], slot
	}
	s, local := e.part.locate(slot)
	return e.shards[s], local
}

// shardSpan is one unit of compute/collect work: the LOCAL slot range
// [lo, hi) of one shard — or, for a frontier span, that index range of
// the shard's frontier list. The scan spans are precomputed at
// construction; frontier spans are rebuilt each superstep from the
// shards' frontier lengths.
type shardSpan struct {
	shard  int32
	lo, hi int32
}

// Span granularity. The span list is where the schedules differ — the
// claiming loop (parallelFor) is the same for all of them:
//
//   - static cuts each shard into one span per worker (the paper's
//     "equal share" split, §4);
//   - edge-balanced places those cuts at equal out-edge counts instead
//     of equal slot counts;
//   - dynamic cuts dynamicSpanFactor spans per worker, never finer than
//     dynamicMinSpan items, so fast workers keep claiming.
const (
	dynamicSpanFactor = 16
	dynamicMinSpan    = 64
)

// spanParts is the number of ranges a shard's n work items (local slots
// or frontier entries) are cut into.
func (e *Engine[V, M]) spanParts(n int) int {
	t := e.threads
	switch {
	case t == 1:
		return 1
	case e.cfg.Schedule == ScheduleDynamic:
		return max(1, min(t*dynamicSpanFactor, n/dynamicMinSpan))
	}
	return t
}

// cutSpans appends shard's n items cut into at most parts equal ranges.
func cutSpans(spans []shardSpan, shard, n, parts int) []shardSpan {
	parts = min(parts, n)
	for c := 0; c < parts; c++ {
		spans = append(spans, shardSpan{int32(shard), int32(c * n / parts), int32((c + 1) * n / parts)})
	}
	return spans
}

// buildScanSpans precomputes the full-scan work list: every shard's
// local slot space cut into spanParts ranges, so every worker can claim
// work from any shard (no worker is idled by an empty shard).
func (e *Engine[V, M]) buildScanSpans() {
	for s, sh := range e.shards {
		localN := len(sh.values)
		parts := e.spanParts(localN)
		if e.cfg.Schedule != ScheduleEdgeBalanced || sh.globals != nil || parts == 1 {
			e.scanSpans = cutSpans(e.scanSpans, s, localN, parts)
			continue
		}
		// The shard's global range is contiguous, so its CSR degree
		// prefix sums are usable: cut it into ranges of ~equal out-edge
		// counts in internal-index space, then translate back to local
		// slots. The desolate dead zone (global < shift) has no internal
		// index and is clamped out.
		toIdx := int(sh.base) - e.shift
		loIdx := max(toIdx, 0)
		hiIdx := max(toIdx+localN, loIdx)
		cuts := edgeBalancedCuts(e.g, parts, loIdx, hiIdx)
		for c := 0; c < parts; c++ {
			if lo, hi := cuts[c]-int32(toIdx), cuts[c+1]-int32(toIdx); lo < hi {
				e.scanSpans = append(e.scanSpans, shardSpan{int32(s), lo, hi})
			}
		}
	}
}

// edgeBalancedCuts splits the internal-index range [lo, hi) into t
// contiguous ranges of ~equal out-edge counts. The CSR out-offsets are
// already the degree prefix sums, so each boundary is one binary search
// for the smallest vertex whose offset reaches its share — on power-law
// graphs a vertex-count split hands whichever worker owns the hubs
// almost all of the message work.
func edgeBalancedCuts(g *graph.Graph, t, lo, hi int) []int32 {
	cuts := make([]int32, t+1)
	cuts[0], cuts[t] = int32(lo), int32(hi)
	if hi <= lo {
		for w := 1; w < t; w++ {
			cuts[w] = int32(lo)
		}
		return cuts
	}
	base := g.OutEdgeOffset(lo)
	top := g.M()
	if hi < g.N() {
		top = g.OutEdgeOffset(hi)
	}
	m := top - base
	for w := 1; w < t; w++ {
		target := base + m*uint64(w)/uint64(t)
		cuts[w] = int32(lo + sort.Search(hi-lo, func(i int) bool { return g.OutEdgeOffset(lo+i) >= target }))
	}
	for w := 1; w <= t; w++ { // collapse degenerate boundaries monotonically
		if cuts[w] < cuts[w-1] {
			cuts[w] = cuts[w-1]
		}
	}
	return cuts
}

// frontierSpans cuts each shard's current (or, with next set, upcoming)
// frontier into spanParts ranges, reusing the span buffer.
func (e *Engine[V, M]) frontierSpans(next bool) []shardSpan {
	spans := e.frontierSpanBuf[:0]
	for s, sh := range e.shards {
		n := len(sh.frontier)
		if next {
			n = len(sh.frontierNext)
		}
		spans = cutSpans(spans, s, n, e.spanParts(n))
	}
	e.frontierSpanBuf = spans
	return spans
}

// paddedCursor is the shared claim counter, padded to its own cache line
// on both sides: under high thread counts an unpadded counter
// false-shares its line with whatever the allocator placed next to it,
// and every AddInt64 then invalidates innocent data.
type paddedCursor struct {
	_ [64]byte
	n int64
	_ [56]byte
}

// parallelFor runs body over task indices 0..n-1, claimed one at a time
// from a shared cursor — the engine's one scheduler. What a task is (a
// span of vertices, a destination shard, a worker's cache) and how
// finely the work was cut is the caller's decision; with one worker the
// tasks run inline in order.
func (e *Engine[V, M]) parallelFor(n int, body func(w, k int)) {
	t := min(e.threads, n)
	if t <= 1 {
		if n > 0 {
			e.guard(0, func() {
				for k := 0; k < n; k++ {
					body(0, k)
				}
			})
		}
		return
	}
	cursor := new(paddedCursor)
	e.dispatch(t, func(w int) {
		e.guard(w, func() {
			for {
				k := int(atomic.AddInt64(&cursor.n, 1)) - 1
				if k >= n {
					return
				}
				body(w, k)
			}
		})
	})
}

// computePhase runs IP_compute over the selected vertices and returns
// how many ran. Traditional selection scans every runnable shard's
// slots and runs those that are active or have mail (§4's "unfruitful
// checks" when inactive); superstep 0 runs everything in both modes,
// since all vertices start active. Under selection bypass the frontier
// holds exactly the vertices that received a message, so workers run
// every vertex they are given (§4's load-balance property).
func (e *Engine[V, M]) computePhase() int64 {
	first := e.superstep == 0
	fullScan := first || !e.cfg.SelectionBypass
	spans := e.scanSpans
	if !fullScan {
		spans = e.frontierSpans(false)
	}
	work := e.selectSpans(spans, first)
	e.parallelFor(len(work), func(w, k int) {
		sp := spans[work[k]]
		ctx, sh := e.workers[w], e.shards[sp.shard]
		if !fullScan {
			sh.each(sh.frontier[sp.lo:sp.hi], func(local, global int32) {
				e.runVertex(ctx, sh, local, global)
			})
			return
		}
		sh.scan(sp.lo, sp.hi, e.shift, func(local, global int32) {
			if first || sh.active[local] != 0 || sh.hasMail(int(local)) {
				e.runVertex(ctx, sh, local, global)
			}
		})
	})
	var ran int64
	for _, w := range e.workers {
		ran += w.ran
	}
	return ran
}

func (e *Engine[V, M]) runVertex(ctx *Context[V, M], sh *engineShard[V, M], local, global int32) {
	ctx.curShard = sh.id
	if ctx.activated != nil && sh.active[local] == 0 {
		ctx.activated[sh.id]++
	}
	sh.active[local] = 1
	ctx.ran++
	e.prog.Compute(ctx, Vertex[V, M]{e: e, sh: sh, slot: global, local: local})
}

// selectSpans is the frontier-aware shard-skipping filter: it returns
// the indices of the spans worth running this superstep and records the
// skip count for StepStats.SkippedShards. A shard is skipped exactly
// when nothing in it can run — no vertex is active and no delivery
// reached it last superstep (engineShard.runnable, maintained at each
// barrier). The decision is exact, not heuristic: the scan guard is
// `active || hasCurrent`, and after the swap hasCurrent is true only
// for slots delivered to last superstep. Under selection bypass the
// frontier spans already exclude empty shards, so only the skip count
// is derived here.
func (e *Engine[V, M]) selectSpans(spans []shardSpan, first bool) []int32 {
	bypass := e.cfg.SelectionBypass
	work := e.workBuf[:0]
	for k, sp := range spans {
		if first || bypass || e.shards[sp.shard].runnable {
			work = append(work, int32(k))
		}
	}
	e.workBuf = work
	e.lastSkipped = 0
	if first {
		return work
	}
	for _, sh := range e.shards {
		idle := !sh.runnable
		if bypass {
			idle = len(sh.frontier) == 0
		}
		if idle {
			e.lastSkipped++
		}
	}
	return work
}

// updateShardActivity folds the workers' per-shard activation/halt
// deltas into each shard's incremental active count and derives the
// next superstep's shard-skip decision: a shard is runnable iff it has
// an active vertex or received a delivery this superstep (after the
// swap, exactly the slots with current mail). Runs single-threaded at
// the barrier on the completed-superstep path; under CheckInvariants
// the incremental count is audited against a full flag scan.
func (e *Engine[V, M]) updateShardActivity(step StepStats) error {
	for s, sh := range e.shards {
		var delta int64
		for _, w := range e.workers {
			delta += w.activated[s] - w.halted[s]
		}
		sh.activeCount += delta
		sh.runnable = sh.activeCount > 0 || (s < len(step.ShardMessages) && step.ShardMessages[s] > 0)
	}
	if e.cfg.CheckInvariants {
		return e.auditShardActivity()
	}
	return nil
}

// countActive is the ground-truth number of set activity flags.
func (sh *engineShard[V, M]) countActive() int64 {
	var n int64
	for _, a := range sh.active {
		if a != 0 {
			n++
		}
	}
	return n
}

// initShardActivity seeds the activity summary from the engine's
// current state: all-zero for a fresh engine (superstep 0 runs every
// vertex regardless), the restored flags and mailboxes for an engine
// built by Restore — whose first superstep is not 0 and therefore
// consults runnable immediately.
func (e *Engine[V, M]) initShardActivity() {
	for _, sh := range e.shards {
		sh.activeCount = sh.countActive()
		received := false
		for local := range sh.values {
			if sh.hasMail(local) {
				received = true
				break
			}
		}
		sh.runnable = sh.activeCount > 0 || received
	}
}

// auditShardActivity is the CheckInvariants cross-check of the
// incremental active counts against the ground-truth flag arrays.
func (e *Engine[V, M]) auditShardActivity() error {
	for s, sh := range e.shards {
		if n := sh.countActive(); n != sh.activeCount {
			return &InvariantError{
				Superstep: e.superstep,
				Invariant: "shard-activity",
				Detail:    fmt.Sprintf("shard %d: incremental active count %d but %d active flags are set; the shard-skip decision would be wrong", s, sh.activeCount, n),
			}
		}
	}
	return nil
}

// drainRouters flushes every worker's per-shard routing buffers at the
// compute barrier. Parallelism is over DESTINATION shards: one worker
// drains all routers' entries for shard d, so each shard mailbox sees a
// single flushing worker and the flush itself is contention-free — the
// bulk-combine counterpart of drainSenderCaches.
func (e *Engine[V, M]) drainRouters() {
	e.parallelFor(e.nShards, func(_, d int) {
		mb := e.shards[d].mb
		for _, w := range e.workers {
			w.route.drainShard(d, mb)
		}
	})
}

// drainSenderCaches flushes every worker's combining cache into the
// shard's mailbox at the compute-phase barrier, before the buffer swap.
// Workers' caches drain concurrently; deliver is concurrent-safe on
// every push combiner.
func (e *Engine[V, M]) drainSenderCaches() {
	e.parallelFor(len(e.workers), func(_, wi int) {
		w := e.workers[wi]
		w.cache.drain(w.direct)
	})
}

// parallelGatherMin is the enrolment count below which gatherFrontier
// stays serial (forking workers costs more than the copy).
const parallelGatherMin = 1 << 15

// gatherFrontier concatenates the workers' per-shard enrol buffers into
// each shard's next frontier, one destination shard per task on large
// frontiers.
func (e *Engine[V, M]) gatherFrontier() {
	total := 0
	for _, w := range e.workers {
		for _, buf := range w.enrolled {
			total += len(buf)
		}
	}
	if total < parallelGatherMin || e.threads == 1 {
		for _, sh := range e.shards {
			e.gatherShard(sh)
		}
		return
	}
	e.parallelFor(e.nShards, func(_, d int) { e.gatherShard(e.shards[d]) })
}

// gatherShard builds one shard's next frontier. The buffer is sized
// exactly: frontiers reach |V| entries, and append's growth slack on
// that is live heap for the rest of the run.
func (e *Engine[V, M]) gatherShard(sh *engineShard[V, M]) {
	total := 0
	for _, w := range e.workers {
		total += len(w.enrolled[sh.id])
	}
	buf := sh.frontierNext[:0]
	if cap(buf) < total {
		buf = make([]int32, 0, total)
	}
	for _, w := range e.workers {
		buf = append(buf, w.enrolled[sh.id]...)
	}
	sh.frontierNext = buf
}

// swapFrontiers is the bypass barrier work: promote each shard's next
// frontier and reset the dedup flags of the (new) current frontier so
// the next superstep can enrol the same vertices again.
func (e *Engine[V, M]) swapFrontiers() {
	for _, sh := range e.shards {
		sh.frontier, sh.frontierNext = sh.frontierNext, sh.frontier[:0]
		for _, local := range sh.frontier {
			atomic.StoreUint32(&sh.inNext[local], 0)
		}
	}
}
