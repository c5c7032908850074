package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"

	"ipregel/internal/graph"
)

// atomicMailbox is the lock-free push combiner the follow-up iPregel work
// adopts ("Vertex-centric programmability vs memory efficiency and
// performance, why choose?"): instead of guarding each mailbox with a
// per-vertex lock, delivery combines into the mailbox word with a
// compare-and-swap retry loop. The message must therefore fit a machine
// word; eligibility is decided once at engine construction by a type
// switch over the supported numeric types (no reflection on the hot path),
// and the bit conversion is a width-dispatched unsafe reinterpretation.
//
// Per-slot state machine (stateNext):
//
//	slotEmpty --CAS--> slotBusy --store value, store state--> slotFull
//
// Once a slot is slotFull it stays so for the rest of the superstep and
// every further delivery is a pure load/combine/CAS loop on the value
// word — no lock bytes, no blocked senders. The only waiting window is
// slotBusy, the two stores between a first deliverer winning the empty
// slot and publishing its value; concurrent first-deliveries to the same
// virgin slot spin through it (bounded, then Gosched).
type atomicMailbox[M any] struct {
	combine CombineFunc[M]
	// now holds the current superstep's payload bits; read single-threaded
	// after the barrier, so plain access is the protocol.
	now []uint64
	// next collects this superstep's deliveries. Concurrent senders CAS
	// its elements, so every element access must go through sync/atomic.
	//
	//ipregel:atomic
	next []uint64
	// stateNow is the current buffer's occupancy (slotEmpty/slotFull);
	// barrier-ordered plain access, like now.
	stateNow []uint32
	// stateNext is the delivery-side occupancy state machine
	// (slotEmpty/slotBusy/slotFull); element access must be atomic.
	//
	//ipregel:atomic
	stateNext []uint32
	// wide selects 8-byte bit conversion (4-byte otherwise)
	wide bool
	delivery
	// nRetries counts failed CAS attempts (value-word combine retries and
	// lost empty-slot claims). Unlike the delivery counters it is always
	// maintained: the increments sit exclusively on the already-contended
	// failure paths, so the uncontended fast path pays nothing, and the
	// telemetry layer reads it live as the contention signal.
	nRetries atomic.Uint64
}

const (
	slotEmpty uint32 = iota
	slotBusy
	slotFull
)

// atomicWidth reports whether M is one of the word-sized message types the
// CAS combiner supports, and whether it needs the 8-byte conversion.
func atomicWidth[M any]() (wide bool, err error) {
	var zero M
	switch any(zero).(type) {
	case int64, uint64, float64:
		return true, nil
	case int32, uint32, float32:
		return false, nil
	}
	return false, fmt.Errorf("core: the atomic combiner packs each mailbox into one machine word and supports int32, uint32, float32, int64, uint64 and float64 messages; message type %T does not qualify — pick the mutex or spinlock combiner", zero)
}

func newAtomicMailbox[M any](slots int, combine CombineFunc[M], cfg Config) (*atomicMailbox[M], error) {
	wide, err := atomicWidth[M]()
	if err != nil {
		return nil, err
	}
	return &atomicMailbox[M]{
		combine:   combine,
		now:       make([]uint64, slots),
		next:      make([]uint64, slots),
		stateNow:  make([]uint32, slots),
		stateNext: make([]uint32, slots),
		wide:      wide,
		delivery:  newDelivery(cfg, slots),
	}, nil
}

func (mb *atomicMailbox[M]) bits(m M) uint64 {
	if mb.wide {
		return *(*uint64)(unsafe.Pointer(&m))
	}
	return uint64(*(*uint32)(unsafe.Pointer(&m)))
}

func (mb *atomicMailbox[M]) value(b uint64) M {
	var m M
	if mb.wide {
		*(*uint64)(unsafe.Pointer(&m)) = b
	} else {
		*(*uint32)(unsafe.Pointer(&m)) = uint32(b)
	}
	return m
}

// deliver reports whether it filled dst: won the slotEmpty → slotBusy CAS.
func (mb *atomicMailbox[M]) deliver(dst int, msg M) (filled bool) {
	state := &mb.stateNext[dst]
	word := &mb.next[dst]
	for spins := 0; ; {
		switch atomic.LoadUint32(state) {
		case slotFull:
			for {
				oldBits := atomic.LoadUint64(word)
				cur := mb.value(oldBits)
				mb.combine(&cur, msg)
				newBits := mb.bits(cur)
				if newBits == oldBits {
					// combine left the mailbox unchanged (e.g. min with a
					// larger candidate): nothing to publish
					mb.count(1, 0)
					return false
				}
				if atomic.CompareAndSwapUint64(word, oldBits, newBits) {
					mb.count(1, 0)
					return false
				}
				mb.nRetries.Add(1)
			}
		case slotEmpty:
			if atomic.CompareAndSwapUint32(state, slotEmpty, slotBusy) {
				atomic.StoreUint64(word, mb.bits(msg))
				atomic.StoreUint32(state, slotFull)
				mb.count(0, 1)
				return true
			}
			mb.nRetries.Add(1)
		default: // slotBusy: the first deliverer is publishing its value
			spins++
			if spins%spinTries == 0 {
				runtime.Gosched()
			}
		}
	}
}

func (mb *atomicMailbox[M]) scatter(nbs []graph.VertexID, msg M, enrolled []int32) []int32 {
	for _, nb := range nbs {
		if dst := int(nb); mb.deliver(dst, msg) && mb.enrol && len(enrolled) < mb.enrolCap {
			enrolled = append(enrolled, int32(dst))
		}
	}
	return enrolled
}

func (mb *atomicMailbox[M]) buffers() *pushBuffers[M] { return nil }

// The read side below runs after the superstep barrier (take/hasMail by
// the slot's owner, peek/restoreCurrent/swap by the coordinator), so plain
// accesses suffice: the barrier orders them after every atomic delivery.
// As on pushBuffers, take leaves the slot full and swap clears it.

func (mb *atomicMailbox[M]) take(slot int, m *M) bool {
	if mb.stateNow[slot] != slotFull {
		return false
	}
	*m = mb.value(mb.now[slot])
	return true
}

func (mb *atomicMailbox[M]) peek(slot int) (M, bool) {
	var m M
	if mb.stateNow[slot] != slotFull {
		return m, false
	}
	return mb.value(mb.now[slot]), true
}

func (mb *atomicMailbox[M]) restoreCurrent(slot int, m M) {
	mb.now[slot] = mb.bits(m)
	mb.stateNow[slot] = slotFull
}

func (mb *atomicMailbox[M]) swap(ran []int32, all bool) {
	if all {
		clear(mb.stateNow)
	} else {
		for _, slot := range ran {
			mb.stateNow[slot] = slotEmpty
		}
	}
	mb.now, mb.next = mb.next, mb.now
	mb.stateNow, mb.stateNext = mb.stateNext, mb.stateNow
}

func (mb *atomicMailbox[M]) contentionRetries() uint64 {
	return mb.nRetries.Load()
}

// auditBarrier verifies the per-slot state machine settled: once every
// worker has joined the barrier, no slot may remain slotBusy — a busy slot
// here means a deliverer won the empty→busy CAS and vanished before
// publishing, which would hang the next superstep's senders. And, as on
// pushBuffers, every full slot is one counted fill of this superstep.
func (mb *atomicMailbox[M]) auditBarrier() error {
	var full uint64
	for i := range mb.stateNext {
		switch atomic.LoadUint32(&mb.stateNext[i]) {
		case slotBusy:
			return fmt.Errorf("atomic mailbox slot %d stuck in slotBusy at the barrier: a delivery won the empty slot but never published its value", i)
		case slotFull:
			full++
		}
	}
	if fills := mb.nFills.Load(); full != fills {
		return fmt.Errorf("%d next-inbox slots are full but %d fills were counted: stale occupancy survived the last swap, or a fill went uncounted", full, fills)
	}
	return nil
}

// footprintBytes: the value word is always 8 bytes (even for 4-byte
// messages) plus a 4-byte state per slot and buffer — zero lock bytes, the
// trade the journal version makes against the 4-byte spinlock.
func (mb *atomicMailbox[M]) footprintBytes() uint64 {
	slots := uint64(len(mb.now))
	return slots*2*8 + slots*2*4
}
