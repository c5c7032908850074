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

// cutScanSpans cuts the slots [0, n) for t workers by the span rule's
// part count into spans of whole 64-slot words, their word counts within
// one: every cut but the last (n) falls on a multiple of 64, so each
// activity and occupancy word has one writer. With fewer words than parts
// (under 64 slots per part) each span is one word.
func cutScanSpans(n, t int) []span {
	words := occupancyWords(n)
	parts := min(spanParts(n, t), words)
	spans := make([]span, 0, parts)
	for c := 0; c < parts; c++ {
		spans = append(spans, span{int32(c * words / parts << 6), int32(min(n, (c+1)*words/parts<<6))})
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
// order (runWords): below that the measured per-vertex saving stops
// paying for the scan's per-slot cost (DESIGN.md §9.1). It also caps the
// enrolment lists (listCap). Only tests set it.
var slotOrderCut = 32

// computePhase runs IP_compute over the selected vertices and returns
// how many ran. Traditional selection scans every slot and runs those
// that are active or have mail (§4's "unfruitful checks" when inactive,
// here one test per 64 slots); superstep 0 runs everything in both modes,
// since all vertices start active. Under selection bypass the frontier
// holds exactly the vertices that received a message, so workers run
// every vertex they are given (§4's load-balance property), or scan for
// them from slotOrderCut up — always when the frontier is dense, the
// current inbox's occupancy.
func (e *Engine[V, M]) computePhase() int64 {
	fullScan := e.superstep == 0 || !e.cfg.SelectionBypass
	e.slotOrder = !fullScan && (e.dense || len(e.frontier)*slotOrderCut >= e.g.N())
	spans := e.scanSpans
	if !fullScan && !e.slotOrder {
		spans = e.frontierSpans(false)
	}
	e.parallelFor(len(spans), func(w, k int) {
		sp, ctx := spans[k], e.workers[w]
		if fullScan || e.slotOrder {
			e.runWords(ctx, sp, fullScan)
			return
		}
		ctx.ran += int64(sp.hi - sp.lo)
		for _, slot := range e.frontier[sp.lo:sp.hi] {
			if !e.runVertex(ctx, slot) {
				ctx.noteAwake(slot)
			}
		}
	})
	var ran int64
	for _, w := range e.workers {
		ran += w.ran
	}
	return ran
}

// runWords runs sp's selected slots in slot order, one 64-slot word at a
// time masked to sp at its two ends: on a full scan (scan set) every slot
// at superstep 0 and after it those active or with mail, otherwise (a
// bypass frontier run in slot order) those with mail. The vertices a word
// leaves awake are its new activity word, stored once: a scan span holds
// whole words, so no other worker writes it. Selection bypass keeps no
// activity and records the first vertex left awake instead.
func (e *Engine[V, M]) runWords(ctx *Context[V, M], sp span, scan bool) {
	lo, hi, has, active := int(sp.lo), int(sp.hi), e.buf.hasNow, e.active
	all := scan && e.superstep == 0
	for w := lo >> 6; w<<6 < hi; w++ {
		mask := has[w]
		switch {
		case all:
			mask = ^uint64(0)
		case scan && active != nil:
			mask |= active[w]
		}
		if mask == 0 {
			continue // nothing to run, and its activity word is already zero
		}
		if base := w << 6; base < lo {
			mask &= ^uint64(0) << (lo - base)
		}
		if end := (w + 1) << 6; end > hi {
			mask &= ^uint64(0) >> (end - hi)
		}
		ctx.ran += int64(bits.OnesCount64(mask))
		var awake uint64
		for ; mask != 0; mask &= mask - 1 {
			bit := bits.TrailingZeros64(mask)
			if !e.runVertex(ctx, int32(w<<6+bit)) {
				awake |= 1 << bit
			}
		}
		if active != nil {
			active[w] = awake
		} else if awake != 0 {
			ctx.noteAwake(int32(w<<6 + bits.TrailingZeros64(awake)))
		}
	}
}

// runVertex runs Compute on slot with the worker's per-vertex markers
// reset — nothing drained, no vote cast — and reports whether the vertex
// voted to halt. Its callers count the vertices they run, per word or
// per span, which keeps it small enough to inline.
func (e *Engine[V, M]) runVertex(ctx *Context[V, M], slot int32) bool {
	ctx.drained, ctx.halted = false, false
	e.prog.Compute(ctx, Vertex[V, M]{e: e, slot: slot})
	return ctx.halted
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
