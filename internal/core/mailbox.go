package core

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"ipregel/internal/graph"
)

// CombineFunc merges a newly received message into the single message a
// mailbox holds (paper Fig. 4, IP_combine). It must be commutative and
// associative for the result to be independent of delivery order.
type CombineFunc[M any] func(old *M, new M)

// Min is the paper's Fig. 5 combiner (Hashmin, SSSP, BFS): the inbox
// keeps the smaller message. New recognises it, so the one-thread inbox's
// bypass loop compares in place instead of calling it (sameFunc).
func Min(old *uint32, new uint32) {
	if new < *old {
		*old = new
	}
}

// Sum is the paper's Fig. 6 combiner (PageRank): the inbox keeps the sum.
// New recognises it, so the one-thread inbox's loop and the pull
// collector add in place instead of calling it (sameFunc).
func Sum(old *float64, new float64) { *old += new }

// sameFunc reports whether combine is f itself. It compares code
// pointers, so a literal with f's body, a wrapper that calls f and a
// method value are all not f: they keep the called loop.
func sameFunc[M, T any](combine CombineFunc[M], f func(*T, T)) bool {
	return reflect.ValueOf(combine).Pointer() == reflect.ValueOf(f).Pointer()
}

// mailbox is the combination module (paper §6): a vertex INBOX holding
// at most one combined message. How messages reach it — pushed at send
// time, or pulled from the senders' outboxes by the collect phase — is
// the engine's transport decision (direction.go), not the inbox's. Every
// version keeps the same state, pushBuffers, which the engine reads,
// checkpoints, audits and swaps directly; the versions differ only in
// what makes a concurrent push deposit safe, which is also what the
// paper's memory analysis compares: one lock per vertex (mutex 8 B,
// spinlock 4 B in Go), or nothing at all (plain: every slot has one
// depositor per phase).
//
// The version is chosen once (newMailbox) and the hot path pays for the
// choice once per broadcast, not per message: scatter is each version's
// own per-neighbour loop.
type mailbox[M any] interface {
	// scatter puts msg into the next-superstep inbox of slot nb for every
	// nb, combining where a message is already present: one
	// broadcast's fan-out under a single dispatch (Context.scatter). Safe
	// for concurrent senders on the mutex and spinlock versions; on the
	// plain version only while each slot has a single depositor.
	// Under selection bypass it returns enrolled plus each slot it filled:
	// a push superstep starts on an empty next inbox, so that first fill
	// (one depositor sees it) is the slot's one enrolment (§4). The list
	// stops at enrolCap entries; past that the next inbox's occupancy is
	// the frontier (gatherFrontier). Without bypass nothing is enrolled;
	// the caller passes nil and gets nil.
	scatter(nbs []graph.VertexID, msg M, enrolled []int32) []int32
	// lockBytes reports the heap bytes of the version's per-slot locks,
	// for the §7.4 accounting; pushBuffers.buffersBytes is the rest.
	lockBytes() uint64
}

// listCap is the most entries a push superstep's enrolment list holds,
// per worker and gathered: max(|V|/slotOrderCut, minSpan). A frontier
// that reaches |V|/slotOrderCut runs from the occupancy scan anyway
// (computePhase), so past the cap the next inbox's bits are the frontier;
// the minSpan floor keeps small graphs' frontiers as lists. A cut of 0
// (tests only) lists every frontier.
func listCap(slots int) int {
	if slotOrderCut == 0 {
		return math.MaxInt
	}
	return max(slots/slotOrderCut, minSpan)
}

// FrontierListCap is the entries each worker's enrolment buffer holds on
// an engine over |V| = vertices, under selection bypass: listCap, or |V|
// when that is smaller. memmodel mirrors the engine's allocations with it.
func FrontierListCap(vertices int) int { return min(listCap(vertices), vertices) }

// Occupancy is one bit per slot, 64 slots to a word.
func occupancyWords(slots int) int { return (slots + 63) / 64 }

func hasBit(words []uint64, slot int) bool { return words[slot>>6]&(1<<(slot&63)) != 0 }

// orWord sets bits in a word other workers may set bits in concurrently
// (the module targets Go 1.22, which has no atomic.OrUint64). The nested
// benchmark module's go.mod pins 1.22 as well: raising the root go.mod
// alone fails its build, so a move to atomic.OrUint64 raises both.
func orWord(w *uint64, bits uint64) {
	for {
		old := atomic.LoadUint64(w)
		if old|bits == old || atomic.CompareAndSwapUint64(w, old, old|bits) {
			return
		}
	}
}

// countBits is the number of occupied slots in words.
func countBits(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// pushBuffers is the double-buffered inbox state of every version:
// compute at superstep s reads now (messages sent during s-1) while new
// messages land in next, and the barrier swaps them. Occupancy is a bit
// per slot (hasBit): the compute phase only reads hasNow, and a word of
// hasNext is written with atomics only where two workers can deposit
// into it — the lock-based versions' scatter (deposit) and the boundary
// words of a collect span.
//
// Beside the buffers it keeps whether scatter enrols the slots it fills
// (SelectionBypass) and how many it lists (enrolCap), and the delivery
// counters of the conservation audit, maintained only under
// CheckInvariants — through sync/atomic, since depositors own only their
// target slot and race on the counters.
type pushBuffers[M any] struct {
	combine           CombineFunc[M]
	now, next         []M
	hasNow, hasNext   []uint64
	enrol, check      bool
	enrolCap          int
	nCombines, nFills atomic.Uint64
}

func newPushBuffers[M any](slots int, combine CombineFunc[M], cfg Config) pushBuffers[M] {
	return pushBuffers[M]{
		combine:  combine,
		now:      make([]M, slots),
		next:     make([]M, slots),
		hasNow:   make([]uint64, occupancyWords(slots)),
		hasNext:  make([]uint64, occupancyWords(slots)),
		enrol:    cfg.SelectionBypass,
		check:    cfg.CheckInvariants,
		enrolCap: listCap(slots),
	}
}

func (b *pushBuffers[M]) count(combines, fills int) {
	if b.check {
		b.nCombines.Add(uint64(combines))
		b.nFills.Add(uint64(fills))
	}
}

// deliveryCounts returns how many deliveries combined into an occupied
// inbox and how many filled an empty one since the last reset: both 0
// unless Config.CheckInvariants is set. They feed the engine's
// message-conservation audit, which resets them at the barrier.
func (b *pushBuffers[M]) deliveryCounts() (combines, fills uint64) {
	return b.nCombines.Load(), b.nFills.Load()
}

func (b *pushBuffers[M]) resetDeliveryCounts() {
	b.nCombines.Store(0)
	b.nFills.Store(0)
}

// auditBarrier ties the occupancy bits to the counted deliveries: every
// set bit of the next buffer is one fill of this superstep. A bit that
// survived the last swap's frontier-sized clear has no fill to show.
// Called single-threaded between the compute phase and the swap, only
// under Config.CheckInvariants.
func (b *pushBuffers[M]) auditBarrier() error {
	if set, fills := countBits(b.hasNext), b.nFills.Load(); uint64(set) != fills {
		return fmt.Errorf("%d next-inbox slots are occupied but %d fills were counted: a stale flag survived the last swap, or a fill went uncounted", set, fills)
	}
	return nil
}

// take reads slot's current message without clearing it: the compute
// phase never writes the current inbox, Context.NextMessage ends the drain
// and the barrier's swap clears the slots that ran.
func (b *pushBuffers[M]) take(slot int, m *M) bool {
	if !hasBit(b.hasNow, slot) {
		return false
	}
	*m = b.now[slot]
	return true
}

// peek reads slot's current message (checkpointing at barriers).
func (b *pushBuffers[M]) peek(slot int) (m M, ok bool) {
	ok = b.take(slot, &m)
	return m, ok
}

// restoreCurrent reinstates a current message (checkpoint restore).
func (b *pushBuffers[M]) restoreCurrent(slot int, m M) {
	b.now[slot] = m
	b.hasNow[slot>>6] |= 1 << (slot & 63)
}

// swap publishes the next buffer as current and clears the current
// occupancy, which reading mail leaves set: that of the slots in ran
// (under selection bypass only a listed frontier that just ran can hold
// mail, an O(frontier) clear), or of every slot when all is set (a
// full-scan superstep or a dense frontier).
func (b *pushBuffers[M]) swap(ran []int32, all bool) {
	if all {
		clear(b.hasNow)
	} else {
		for _, slot := range ran {
			b.hasNow[slot>>6] &^= 1 << (slot & 63)
		}
	}
	b.now, b.next = b.next, b.now
	b.hasNow, b.hasNext = b.hasNext, b.hasNow
}

// deposit combines msg into slot's next inbox, reporting a fill; the
// caller must hold the slot's lock. The occupancy word is shared with 63
// slots other workers may hold, so it is read and set atomically.
func (b *pushBuffers[M]) deposit(dst int, msg M) bool {
	w, bit := &b.hasNext[dst>>6], uint64(1)<<(dst&63)
	if atomic.LoadUint64(w)&bit != 0 {
		b.combine(&b.next[dst], msg)
		b.count(1, 0)
		return false
	}
	b.next[dst] = msg
	orWord(w, bit)
	b.count(0, 1)
	return true
}

// markNext sets bits in occupancy word w of the next inbox, atomically
// when another worker may set bits in that word too.
func (b *pushBuffers[M]) markNext(w int, bits uint64, shared bool) {
	if shared {
		orWord(&b.hasNext[w], bits)
	} else {
		b.hasNext[w] |= bits
	}
}

// buffersBytes: two message arrays and two occupancy bitsets.
func (b *pushBuffers[M]) buffersBytes() uint64 {
	var m M
	msg := uint64(unsafe.Sizeof(m))
	return uint64(len(b.now))*(2*msg) + uint64(len(b.hasNow))*2*8
}

// mutexMailbox is the block-waiting push combiner (§6.1): one sync.Mutex
// per vertex mailbox.
type mutexMailbox[M any] struct {
	pushBuffers[M]
	locks []sync.Mutex
}

// scatter deposits under each slot's lock. Only Combine can panic in the
// loop, and it does so holding dst's lock: the deferred release keeps
// later senders from stranding on it, then re-raises.
func (mb *mutexMailbox[M]) scatter(nbs []graph.VertexID, msg M, enrolled []int32) []int32 {
	dst := 0
	defer func() {
		if r := recover(); r != nil {
			mb.locks[dst].Unlock()
			panic(r)
		}
	}()
	for _, nb := range nbs {
		dst = int(nb)
		mb.locks[dst].Lock()
		filled := mb.deposit(dst, msg)
		mb.locks[dst].Unlock()
		if filled && mb.enrol && len(enrolled) < mb.enrolCap {
			enrolled = append(enrolled, int32(dst))
		}
	}
	return enrolled
}

func (mb *mutexMailbox[M]) lockBytes() uint64 { return uint64(len(mb.locks)) * mutexBytes }

// spinMailbox is the busy-waiting push combiner (§6.1): one 4-byte
// spinlock per vertex mailbox, 50% lighter than the mutex version in Go
// (90% in the paper's C, where a pthread mutex is 40 bytes).
type spinMailbox[M any] struct {
	pushBuffers[M]
	locks []spinLock
}

// scatter is the mutex version's loop, panic release included.
func (mb *spinMailbox[M]) scatter(nbs []graph.VertexID, msg M, enrolled []int32) []int32 {
	dst := 0
	defer func() {
		if r := recover(); r != nil {
			mb.locks[dst].unlock()
			panic(r)
		}
	}()
	for _, nb := range nbs {
		dst = int(nb)
		mb.locks[dst].lock()
		filled := mb.deposit(dst, msg)
		mb.locks[dst].unlock()
		if filled && mb.enrol && len(enrolled) < mb.enrolCap {
			enrolled = append(enrolled, int32(dst))
		}
	}
	return enrolled
}

func (mb *spinMailbox[M]) lockBytes() uint64 { return uint64(len(mb.locks)) * spinLockBytes }

// plainMailbox is the inbox with no data-race protection: the bare
// buffers, zero lock bytes. It is legal while every slot has a single
// depositor per phase, which holds in two cases. On a pull-only engine
// (Direction pull, the paper's broadcast version, §6.2) every deposit
// comes from the collect phase and each destination is collected by
// exactly one worker. And with one worker thread every phase runs inline
// (parallelFor), so nothing can race whatever the combiner: the
// per-vertex locks exist only because several senders may hit one
// mailbox at once (§6.1).
type plainMailbox[M any] struct {
	pushBuffers[M]
}

// scatter is deposit fused over one neighbour list, with plain occupancy
// updates (one depositor per slot, one thread): the buffers are resolved
// and the audit counters bumped once per call, and the loop is chosen
// once per call too. Without bypass it is the bare bit test and combine:
// one loop carrying the enrol buffer as well costs every combine a few
// reloads, ~9 % of a PageRank run that never enrols.
func (mb *plainMailbox[M]) scatter(nbs []graph.VertexID, msg M, enrolled []int32) []int32 {
	next, hasNext, fills := mb.next, mb.hasNext, 0
	if !mb.enrol {
		for _, dst := range nbs {
			if w, bit := &hasNext[dst>>6], uint64(1)<<(dst&63); *w&bit != 0 {
				mb.combine(&next[dst], msg)
			} else {
				next[dst] = msg
				*w |= bit
				fills++
			}
		}
		mb.count(len(nbs)-fills, fills)
		return nil
	}
	for _, dst := range nbs {
		if w, bit := &hasNext[dst>>6], uint64(1)<<(dst&63); *w&bit != 0 {
			mb.combine(&next[dst], msg)
		} else {
			next[dst] = msg
			*w |= bit
			fills++
			if len(enrolled) < mb.enrolCap {
				enrolled = append(enrolled, int32(dst))
			}
		}
	}
	mb.count(len(nbs)-fills, fills)
	return enrolled
}

func (mb *plainMailbox[M]) lockBytes() uint64 { return 0 }

// sumInbox is the plain inbox with Sum written into its non-bypass loop:
// PageRank's push delivery, which §4 keeps out of bypass.
type sumInbox struct{ plainMailbox[float64] }

func (mb *sumInbox) scatter(nbs []graph.VertexID, msg float64, _ []int32) []int32 {
	next, hasNext, fills := mb.next, mb.hasNext, 0
	for _, dst := range nbs {
		if w, bit := &hasNext[dst>>6], uint64(1)<<(dst&63); *w&bit != 0 {
			next[dst] += msg
		} else {
			next[dst] = msg
			*w |= bit
			fills++
		}
	}
	mb.count(len(nbs)-fills, fills)
	return nil
}

// minInbox is the plain inbox with Min written into its bypass loop:
// Hashmin's, SSSP's and BFS's push delivery.
type minInbox struct{ plainMailbox[uint32] }

func (mb *minInbox) scatter(nbs []graph.VertexID, msg uint32, enrolled []int32) []int32 {
	next, hasNext, fills := mb.next, mb.hasNext, 0
	for _, dst := range nbs {
		if w, bit := &hasNext[dst>>6], uint64(1)<<(dst&63); *w&bit == 0 {
			next[dst] = msg
			*w |= bit
			fills++
			if len(enrolled) < mb.enrolCap {
				enrolled = append(enrolled, int32(dst))
			}
		} else if msg < next[dst] {
			next[dst] = msg
		}
	}
	mb.count(len(nbs)-fills, fills)
	return enrolled
}

// newPlainMailbox builds the plain inbox and returns it with its buffers.
// For the two pairings the paper's applications run — Sum without bypass,
// Min under bypass — it is the version with the combiner written into the
// loop; every other combiner and pairing gets the loop that calls combine
// per delivery.
func newPlainMailbox[M any](cfg Config, slots int, combine CombineFunc[M]) (mailbox[M], *pushBuffers[M]) {
	var inline, buf any
	switch {
	case !cfg.SelectionBypass && sameFunc(combine, Sum):
		mb := &sumInbox{plainMailbox[float64]{newPushBuffers(slots, Sum, cfg)}}
		inline, buf = mb, &mb.pushBuffers
	case cfg.SelectionBypass && sameFunc(combine, Min):
		mb := &minInbox{plainMailbox[uint32]{newPushBuffers(slots, Min, cfg)}}
		inline, buf = mb, &mb.pushBuffers
	}
	if mb, ok := inline.(mailbox[M]); ok {
		return mb, buf.(*pushBuffers[M])
	}
	mb := &plainMailbox[M]{newPushBuffers(slots, combine, cfg)}
	return mb, &mb.pushBuffers
}

// newMailbox builds the combination module version chosen by cfg and
// returns it with its buffers: the plain inbox when nothing can race — a
// pull-only engine, or any combiner on a one-thread engine — and the
// configured lock otherwise.
func newMailbox[M any](cfg Config, slots int, combine CombineFunc[M]) (mailbox[M], *pushBuffers[M], error) {
	switch {
	case cfg.Combiner != CombinerMutex && cfg.Combiner != CombinerSpin:
		return nil, nil, fmt.Errorf("core: unknown combiner %v", cfg.Combiner)
	case cfg.Direction == DirectionPull || cfg.ResolvedThreads() == 1:
		mb, buf := newPlainMailbox(cfg, slots, combine)
		return mb, buf, nil
	case cfg.Combiner == CombinerMutex:
		mb := &mutexMailbox[M]{pushBuffers: newPushBuffers(slots, combine, cfg), locks: make([]sync.Mutex, slots)}
		return mb, &mb.pushBuffers, nil
	}
	mb := &spinMailbox[M]{pushBuffers: newPushBuffers(slots, combine, cfg), locks: make([]spinLock, slots)}
	return mb, &mb.pushBuffers, nil
}
