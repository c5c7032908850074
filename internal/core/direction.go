package core

import (
	"context"
	"math/bits"
)

// The direction model (Config.Direction): whether a superstep's sends
// travel push or pull is a transport decision the engine takes per
// superstep, independent of which inbox combiner holds the mail.
//
//   - Push supersteps: Broadcast expands to per-neighbour deliveries
//     into the recipients' inboxes (Context.scatter).
//   - Pull supersteps buffer one outbox entry per broadcasting vertex
//     (pullOut/pullFlag, slot indexed, owner-written — a vertex touches
//     only its own slot, so they need no lock) and fan out in a collect
//     phase: every destination folds its flagged in-neighbours' entries
//     in in-neighbour order and writes its own inbox once (collectSlot).
//     The fold counts k entries as k-1 combines and one fill, so the
//     message-conservation audit keeps working: a pull superstep's
//     Messages count the logical fan-out (out-degree per broadcast),
//     which equals the entries folded exactly. That same counting makes
//     push-only, pull-only and adaptive runs of one program
//     Fingerprint-identical.
//
// This is the one pull transport, and Direction pull — every superstep
// pulled — is the paper's §6.2 broadcast version: collect deposits are
// owner-only, so a pull-only engine runs it over the plain inbox
// (plainMailbox) at any thread count.
//
// DirectionAdaptive picks per superstep from the exact density of the
// upcoming frontier: pull when its out-edge count reaches
// pullEdgeCut (= AdaptiveThreshold·|E|), push otherwise. The density
// is recomputed from barrier state (post-swap mail, promoted frontier),
// which checkpoints capture in full — a Restored engine reseeds from
// the same state and re-derives the same decisions, so crash/resume
// cannot diverge across a direction switch.

// beginSuperstepDirection fixes the running superstep's transport,
// before any worker starts. Deterministic: fixed modes always pick their
// mode; adaptive compares the reseeded frontier density against the
// edge threshold. An adaptive run's first pull superstep is also where
// an in-adjacency that is derived on demand gets built (New built it
// already for a fixed pull run).
func (e *Engine[V, M]) beginSuperstepDirection(ctx context.Context) {
	switch {
	case e.cfg.Direction == DirectionPull:
		e.curDir = DirectionPull
	case e.cfg.Direction == DirectionAdaptive && e.frontierEdges >= e.pullEdgeCut:
		e.curDir = DirectionPull
		if !e.g.InEdgesResident() {
			region(ctx, "ipregel.inedges", func() { e.g.WithInEdges() })
		}
	default:
		e.curDir = DirectionPush
	}
}

// reseedFrontierDensity recomputes the out-edge count of the upcoming
// frontier for the adaptive decision. Called once at run start (fresh
// or restored alike) and after every barrier; a no-op outside adaptive
// mode.
func (e *Engine[V, M]) reseedFrontierDensity() {
	if e.cfg.Direction != DirectionAdaptive {
		return
	}
	e.frontierEdges = e.countFrontierEdges()
}

// countFrontierEdges sums the out-degrees of the vertices the next
// superstep will run: everything on superstep 0 (all vertices start
// active), the promoted frontier under selection bypass (a dense one is
// the post-swap mail), and otherwise an exact parallel scan of the
// activity and post-swap occupancy words — the same `active | hasNow`
// selection the compute scan applies.
func (e *Engine[V, M]) countFrontierEdges() uint64 {
	if e.superstep == 0 {
		return e.g.M()
	}
	var total uint64
	switch {
	case e.dense:
		for slot := 0; slot < e.g.N(); slot++ {
			if e.hasMail(slot) {
				total += uint64(e.g.OutDegree(slot))
			}
		}
		return total
	case e.cfg.SelectionBypass:
		for _, slot := range e.frontier {
			total += uint64(e.g.OutDegree(int(slot)))
		}
		return total
	}
	if e.dirSums == nil {
		e.dirSums = make([]uint64, e.threads)
	} else {
		clear(e.dirSums)
	}
	sums, spans := e.dirSums, e.scanSpans
	e.parallelFor(len(spans), func(w, k int) {
		// A scan span holds whole words, and no bit past |V| is set.
		for word := int(spans[k].lo) >> 6; word<<6 < int(spans[k].hi); word++ {
			for mask := e.active[word] | e.buf.hasNow[word]; mask != 0; mask &= mask - 1 {
				sums[w] += uint64(e.g.OutDegree(word<<6 + bits.TrailingZeros64(mask)))
			}
		}
	})
	for _, s := range sums {
		total += s
	}
	return total
}

// collectPull is the pull superstep's fan-out: every destination vertex
// folds its in-neighbours' flagged outbox entries into its own inbox
// (collectSlot), then the outbox flags are cleared for the next pull
// superstep. Each destination is processed by exactly one worker, so
// every inbox write is owner-only — race-free without any collect-side
// locking on any inbox, and what makes the plain one legal on a pull-only
// engine at any thread count.
//
// The workers' pullEdges sum to the out-edges of the flagged senders.
// At 0 (nobody, or only sinks, broadcast) no receiver has an entry, and
// the walk is skipped. At |E| every vertex with an out-edge broadcast,
// so every in-neighbour is flagged and the fold reads no flag.
//
// Under selection bypass only enrolled recipients can have mail (the
// pull broadcast enrolled its out-neighbours), so collection is bounded
// by the gathered next frontier — and each slot's collector clears its
// pullEnrol flag; otherwise it covers the full scan spans.
//
// The collector also sets the slots' occupancy bits. A scan span holds
// whole 64-slot words, so collectScan owns every word it sets; a word of
// a frontier list two workers can write (two threads or more) is set
// atomically (markNext).
func (e *Engine[V, M]) collectPull() {
	var edges uint64
	for _, w := range e.workers {
		edges += w.pullEdges
		w.pullEdges = 0
	}
	if edges == 0 {
		clear(e.pullFlag)
		return
	}
	every, bypass, shared, b := edges == e.g.M(), e.cfg.SelectionBypass, e.threads > 1, e.buf
	spans := e.scanSpans
	if bypass {
		spans = e.frontierSpans(true)
	}
	e.parallelFor(len(spans), func(w, k int) {
		sp, ctx := spans[k], e.workers[w]
		if !bypass {
			e.collectScan(ctx, int(sp.lo), int(sp.hi), every)
			return
		}
		for _, slot := range e.frontierNext[sp.lo:sp.hi] {
			if e.collectSlot(ctx, int(slot), every) {
				b.markNext(int(slot>>6), 1<<(slot&63), shared)
			}
			e.pullEnrol[slot].Store(0)
		}
	})
	clear(e.pullFlag)
}

// collectScan collects the slots [lo, hi) of one scan span, building
// each 64-slot occupancy word in a register and setting it once: the span
// holds whole words, so no other worker writes them.
func (e *Engine[V, M]) collectScan(ctx *Context[V, M], lo, hi int, every bool) {
	for lo < hi {
		end := min(hi, (lo|63)+1)
		var word uint64
		for slot := lo; slot < end; slot++ {
			if e.collectSlot(ctx, slot, every) {
				word |= 1 << (slot & 63)
			}
		}
		if word != 0 {
			e.buf.hasNext[lo>>6] |= word
		}
		lo = end
	}
}

// collectSlot is the pull combiner (§6.2): it folds slot's flagged
// in-neighbour outbox entries, in in-neighbour order, into the worker's
// accumulator — the first copied, each later one combined — and writes
// slot's inbox once, reporting whether it did. With every set, all
// in-neighbours are flagged and no flag is read. The next inbox is empty
// when a pull superstep starts and the collector is the slot's only
// depositor, so that is a plain store of the message (collectPull sets
// the occupancy bit). With Sum the fold adds in a register over sumOut;
// both folds add in in-neighbour order, so they agree to the bit.
func (e *Engine[V, M]) collectSlot(ctx *Context[V, M], slot int, every bool) bool {
	flag, out, combine := e.pullFlag, e.pullOut, e.prog.Combine
	nbs := e.g.InNeighborsWith(&ctx.nbuf, slot)
	i := 0
	if !every {
		for i < len(nbs) && flag[nbs[i]] == 0 {
			i++
		}
	}
	if i == len(nbs) {
		return false
	}
	ctx.acc = out[nbs[i]]
	rest, k := nbs[i+1:], 1
	if sumOut := e.sumOut; sumOut != nil {
		acc := any(&ctx.acc).(*float64)
		sum := *acc
		if every {
			for _, nb := range rest {
				sum += sumOut[nb]
			}
			k += len(rest)
		} else {
			for _, nb := range rest {
				if flag[nb] != 0 {
					sum += sumOut[nb]
					k++
				}
			}
		}
		*acc = sum
	} else if every {
		for _, nb := range rest {
			combine(&ctx.acc, out[nb])
		}
		k += len(rest)
	} else {
		for _, nb := range rest {
			if flag[nb] != 0 {
				combine(&ctx.acc, out[nb])
				k++
			}
		}
	}
	e.buf.next[slot] = ctx.acc
	e.buf.count(k-1, 1)
	return true
}
