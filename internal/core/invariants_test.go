package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"ipregel/internal/graph"
)

// TestCheckInvariantsCleanAcrossVersions runs every combiner (with and
// without bypass) under the full audit: a correct engine must never trip
// it.
func TestCheckInvariantsCleanAcrossVersions(t *testing.T) {
	g := ringGraph(64, 0)
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin, CombinerPull, CombinerAtomic} {
		for _, bypass := range []bool{false, true} {
			cfg := Config{
				Combiner:        comb,
				SelectionBypass: bypass,
				CheckInvariants: true,
				Threads:         4,
			}
			if _, _, err := Run(g, cfg, haltingFlood(6)); err != nil {
				t.Fatalf("%s: clean run tripped the audit: %v", cfg.VersionName(), err)
			}
		}
	}
}

// TestInvariantConservationDetectsLostDelivery injects a delivery behind
// the engine's back: the conservation audit must notice that the mailbox
// holds more than the workers sent.
func TestInvariantConservationDetectsLostDelivery(t *testing.T) {
	g := ringGraph(8, 0)
	cfg := Config{Combiner: CombinerSpin, CheckInvariants: true, Threads: 2}
	e, err := New(g, cfg, counterProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	// A rogue deposit the per-worker counters never saw.
	e.mb.scatter([]graph.VertexID{3}, 0, 99)
	_, err = e.Run()
	var inv *InvariantError
	if !errors.As(err, &inv) {
		t.Fatalf("want *InvariantError, got %v", err)
	}
	if inv.Invariant != "message-conservation" {
		t.Fatalf("invariant = %q, want message-conservation", inv.Invariant)
	}
	if inv.Superstep != 0 {
		t.Fatalf("violation reported at superstep %d, want 0", inv.Superstep)
	}
}

// TestInvariantFrontierDedupDetectsCorruptState drives the barrier audit
// directly against hand-planted frontier state. A full run cannot stage
// these corruptions deterministically: a leaked flag is indistinguishable
// while a flood keeps every flag legitimately set, so each violation is
// planted on a freshly constructed engine and the audit invoked as the
// barrier would.
func TestInvariantFrontierDedupDetectsCorruptState(t *testing.T) {
	g := ringGraph(16, 0)
	cfg := Config{Combiner: CombinerSpin, SelectionBypass: true, CheckInvariants: true, Threads: 2}
	e, err := New(g, cfg, haltingFlood(5))
	if err != nil {
		t.Fatal(err)
	}
	wantDedup := func(detail string) {
		t.Helper()
		err := e.auditInvariants()
		var inv *InvariantError
		if !errors.As(err, &inv) {
			t.Fatalf("want *InvariantError, got %v", err)
		}
		if inv.Invariant != "frontier-dedup" {
			t.Fatalf("invariant = %q, want frontier-dedup", inv.Invariant)
		}
		if !strings.Contains(inv.Detail, detail) {
			t.Fatalf("detail %q does not mention %q", inv.Detail, detail)
		}
	}

	// A set flag with no matching frontier entry: would silently suppress
	// a future enrolment.
	atomic.StoreUint32(&e.inNext[2], 1)
	wantDedup("leaked")
	atomic.StoreUint32(&e.inNext[2], 0)

	// The same vertex enrolled twice: would run it twice next superstep.
	atomic.StoreUint32(&e.inNext[3], 1)
	e.frontierNext = []int32{3, 3}
	wantDedup("enrolled twice")
	atomic.StoreUint32(&e.inNext[3], 0)

	// An enrolment whose dedup flag is clear: exactly-once membership no
	// longer holds for the next superstep's sends.
	e.frontierNext = []int32{4}
	wantDedup("flag is clear")

	// Consistent state must pass.
	atomic.StoreUint32(&e.inNext[4], 1)
	if err := e.auditInvariants(); err != nil {
		t.Fatalf("audit rejected consistent frontier state: %v", err)
	}
}

// TestInvariantMailboxStateDetectsStuckSlot forces a slotBusy state into
// the atomic mailbox's next buffer and invokes the barrier audit directly.
// The engine must not be run with the planted state: a busy slot that is
// never published livelocks every sender spinning in deliver() — which is
// precisely the hang this audit exists to diagnose at the barrier instead.
func TestInvariantMailboxStateDetectsStuckSlot(t *testing.T) {
	g := ringGraph(8, 0)
	cfg := Config{Combiner: CombinerAtomic, CheckInvariants: true, Threads: 2}
	e, err := New(g, cfg, counterProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	amb, ok := e.mb.(*atomicMailbox[uint32])
	if !ok {
		t.Fatalf("engine built %T, want *atomicMailbox", e.mb)
	}
	atomic.StoreUint32(&amb.stateNext[5], slotBusy)
	auditErr := e.auditInvariants()
	var inv *InvariantError
	if !errors.As(auditErr, &inv) {
		t.Fatalf("want *InvariantError, got %v", auditErr)
	}
	if inv.Invariant != "mailbox-state" {
		t.Fatalf("invariant = %q, want mailbox-state", inv.Invariant)
	}
	if !strings.Contains(inv.Error(), "slot 5") {
		t.Fatalf("error does not name the stuck slot: %v", inv)
	}
	// With the slot repaired the audit must pass again.
	atomic.StoreUint32(&amb.stateNext[5], slotEmpty)
	if err := e.auditInvariants(); err != nil {
		t.Fatalf("audit rejected repaired mailbox state: %v", err)
	}
}

// TestInvariantCountersIdleWhenOff: with CheckInvariants off the delivery
// counters must stay untouched (the hot path pays only a branch).
func TestInvariantCountersIdleWhenOff(t *testing.T) {
	g := ringGraph(32, 0)
	e, err := New(g, Config{Combiner: CombinerAtomic, Threads: 2}, counterProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	c, f := e.mb.deliveryCounts()
	if c != 0 || f != 0 {
		t.Fatalf("counters ran with CheckInvariants off: combines=%d fills=%d", c, f)
	}
}
