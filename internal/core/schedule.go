package core

import (
	"math/bits"
	"sync/atomic"
)

// span is one unit of compute/collect work: the slot range [lo, hi) —
// or, for a frontier span, that index range of the frontier list. The
// scan spans are cut once at construction; frontier spans are recut each
// superstep from the frontier's length.
type span struct {
	lo, hi int32
}

// The span rule is the engine's one cut decision, the same for every
// list of spans (the full scan, a bypass frontier, a bypass collect): one
// worker takes the work as one span; from two workers up the work is cut
// into equal item counts — t spans while each would hold fewer than
// minSpan items, then one span per minSpan items, at most spansPerThread
// per worker, so that workers finishing early keep claiming. minSpan is
// derived in DESIGN.md §9: an extra span costs about 1 µs at two threads,
// which at 1 024 items is under 5 % of a span of road-graph SSSP work.
const (
	spansPerThread = 16
	minSpan        = 1024
)

// spanParts is the number of ranges n work items are cut into at t workers.
func spanParts(n, t int) int {
	if t == 1 {
		return 1
	}
	return min(t*spansPerThread, max(t, n/minSpan))
}

// cutSpans appends the items [0, n), cut by the span rule for t workers
// into equal, contiguous, non-empty ranges.
func cutSpans(spans []span, n, t int) []span {
	parts := min(spanParts(n, t), n)
	for c := 0; c < parts; c++ {
		spans = append(spans, span{int32(c * n / parts), int32((c + 1) * n / parts)})
	}
	return spans
}

// frontierSpans cuts the current (or, with next set, upcoming) frontier
// by the span rule, reusing the span buffer.
func (e *Engine[V, M]) frontierSpans(next bool) []span {
	n := len(e.frontier)
	if next {
		n = len(e.frontierNext)
	}
	e.frontierSpanBuf = cutSpans(e.frontierSpanBuf[:0], n, e.threads)
	return e.frontierSpanBuf
}

// paddedCursor is the shared claim counter, padded to its own cache line
// on both sides: under high thread counts an unpadded counter
// false-shares its line with whatever the allocator placed next to it,
// and every Add then invalidates innocent data.
type paddedCursor struct {
	_ [64]byte
	n atomic.Int64
	_ [56]byte
}

// parallelFor runs body over task indices 0..n-1, claimed one at a time
// from a shared cursor — the engine's one scheduler. How finely the work
// was cut is the span rule's decision; with one worker the tasks run
// inline in order.
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
				k := int(cursor.n.Add(1)) - 1
				if k >= n {
					return
				}
				body(w, k)
			}
		})
	})
}

// A bypass frontier of at least |V|/slotOrderCut vertices runs in slot
// order (runOccupied): below that the measured per-vertex saving stops
// paying for the scan's per-slot cost (DESIGN.md §9.1). It also caps the
// enrolment lists (listCap). Only tests set it.
var slotOrderCut = 32

// computePhase runs IP_compute over the selected vertices and returns
// how many ran. Traditional selection scans every slot and runs those
// that are active or have mail (§4's "unfruitful checks" when inactive);
// superstep 0 runs everything in both modes, since all vertices start
// active. Under selection bypass the frontier holds exactly the vertices
// that received a message, so workers run every vertex they are given
// (§4's load-balance property), or scan for them from slotOrderCut up —
// always when the frontier is dense, the current inbox's occupancy.
func (e *Engine[V, M]) computePhase() int64 {
	first := e.superstep == 0
	fullScan := first || !e.cfg.SelectionBypass
	e.slotOrder = !fullScan && (e.dense || len(e.frontier)*slotOrderCut >= e.g.N())
	spans := e.scanSpans
	if !fullScan && !e.slotOrder {
		spans = e.frontierSpans(false)
	}
	e.parallelFor(len(spans), func(w, k int) {
		sp, ctx := spans[k], e.workers[w]
		switch {
		case e.slotOrder:
			e.runOccupied(ctx, sp)
		case !fullScan:
			for _, slot := range e.frontier[sp.lo:sp.hi] {
				e.runVertex(ctx, slot)
			}
		default:
			for slot := sp.lo; slot < sp.hi; slot++ {
				if first || e.active[slot] != 0 || e.hasMail(int(slot)) {
					e.runVertex(ctx, slot)
				}
			}
		}
	})
	var ran int64
	for _, w := range e.workers {
		ran += w.ran
	}
	return ran
}

// runOccupied runs sp's slots with current mail (under bypass, sp's share
// of the frontier) in slot order. The inbox is read one occupancy word
// per 64 slots, masked to sp at its two ends: one mail branch per 64
// slots.
func (e *Engine[V, M]) runOccupied(ctx *Context[V, M], sp span) {
	lo, hi, has := int(sp.lo), int(sp.hi), e.buf.hasNow
	for w := lo >> 6; w<<6 < hi; w++ {
		mask := has[w]
		if base := w << 6; base < lo {
			mask &= ^uint64(0) << (lo - base)
		}
		if end := (w + 1) << 6; end > hi {
			mask &= ^uint64(0) >> (end - hi)
		}
		for ; mask != 0; mask &= mask - 1 {
			e.runVertex(ctx, int32(w<<6+bits.TrailingZeros64(mask)))
		}
	}
}

// runVertex runs Compute on slot with the worker's per-vertex markers
// reset: nothing drained, no vote cast (selection bypass counts votes
// there instead of keeping an activity array).
func (e *Engine[V, M]) runVertex(ctx *Context[V, M], slot int32) {
	if e.active != nil {
		e.active[slot] = 1
	}
	ctx.drained, ctx.halted = false, false
	ctx.ran++
	e.prog.Compute(ctx, Vertex[V, M]{e: e, slot: slot})
}

// hasMail reads slot's current occupancy bit.
func (e *Engine[V, M]) hasMail(slot int) bool { return hasBit(e.buf.hasNow, slot) }

// gatherFrontier concatenates the workers' enrol buffers into the next
// frontier, or on a push superstep whose lists reached listCap — one
// worker's, which may have stopped listing, or all of them together —
// leaves the next frontier dense: the next inbox's occupancy, run in
// slot order and counted here for NextFrontier. Pull supersteps' lists
// have no cap (collectPull walks them). The buffer is sized exactly:
// append's growth slack would be live heap for the rest of the run.
func (e *Engine[V, M]) gatherFrontier() {
	total, full := 0, false
	for _, w := range e.workers {
		total += len(w.enrolled)
		full = full || len(w.enrolled) == e.listCap
	}
	e.denseNext = e.curDir == DirectionPush && (full || total > e.listCap)
	if e.denseNext {
		e.frontierNext = e.frontierNext[:0]
		e.nextCount = countBits(e.buf.hasNext)
		return
	}
	e.nextCount = total
	buf := e.frontierNext[:0]
	if cap(buf) < total {
		buf = make([]int32, 0, total)
	}
	for _, w := range e.workers {
		buf = append(buf, w.enrolled...)
	}
	e.frontierNext = buf
}
