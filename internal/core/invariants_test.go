package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ipregel/internal/graph"
)

// TestCheckInvariantsCleanAcrossVersions runs every inbox version (with
// and without bypass) under the full audit: a correct engine must never trip
// it.
func TestCheckInvariantsCleanAcrossVersions(t *testing.T) {
	g := ringGraph(64, 0)
	for _, version := range []Config{{Combiner: CombinerMutex}, {Combiner: CombinerSpin}, {Direction: DirectionPull}} {
		for _, bypass := range []bool{false, true} {
			cfg := version
			cfg.SelectionBypass, cfg.CheckInvariants, cfg.Threads = bypass, true, 4
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
	e.mb.scatter([]graph.VertexID{3}, 99, nil)
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

// TestInvariantFrontierDedupDetectsCorruptState drives the frontier audit
// directly against hand-planted state. A full run cannot stage these
// corruptions deterministically, so a consistent next frontier is built
// on a freshly constructed engine through the real push path — two
// workers' scatters fill and enrol, gatherFrontier concatenates — and
// each violation is planted on top of it and the audit invoked as the
// barrier would. The engine is adaptive, so it carries the pull dedup
// flags the last case leaks.
func TestInvariantFrontierDedupDetectsCorruptState(t *testing.T) {
	g := ringGraph(16, 0)
	cfg := Config{Combiner: CombinerSpin, Direction: DirectionAdaptive, SelectionBypass: true, CheckInvariants: true, Threads: 2}
	e, err := New(g, cfg, haltingFlood(5))
	if err != nil {
		t.Fatal(err)
	}
	e.workers[0].scatter([]graph.VertexID{3, 4, 3}, 7)
	e.workers[1].scatter([]graph.VertexID{4, 9}, 7)
	e.gatherFrontier()
	staged := append([]int32(nil), e.frontierNext...)
	if fmt.Sprint(staged) != "[3 4 9]" {
		t.Fatalf("fills enrolled %v, want [3 4 9]: each filled slot once, in fill order", staged)
	}
	// The staged state passes the whole barrier audit.
	if err := e.auditInvariants(); err != nil {
		t.Fatalf("audit rejected consistent frontier state: %v", err)
	}
	wantDedup := func(detail string) {
		t.Helper()
		err := e.auditFrontierDedup()
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
		e.frontierNext = append(e.frontierNext[:0], staged...)
	}

	// The same vertex enrolled twice: would run it twice next superstep.
	e.frontierNext = append(e.frontierNext, 4)
	wantDedup("enrolled twice")

	// An enrolment without its fill: the vertex would run with no mail.
	e.frontierNext = append(e.frontierNext, 5)
	wantDedup("next inbox is empty")

	// A fill without its enrolment: §4 would never deliver that message.
	e.frontierNext = e.frontierNext[:2]
	wantDedup("missing from the next frontier")

	// A pull dedup flag that outlived its collect: a later pull broadcast
	// would silently skip that enrolment.
	atomic.StoreUint32(&e.pullEnrol[12], 1)
	wantDedup("leaked")
	atomic.StoreUint32(&e.pullEnrol[12], 0)

	if err := e.auditFrontierDedup(); err != nil {
		t.Fatalf("audit rejected the restored consistent state: %v", err)
	}
}

// TestInvariantCountersIdleWhenOff: with CheckInvariants off the delivery
// counters must stay untouched (the hot path pays only a branch).
func TestInvariantCountersIdleWhenOff(t *testing.T) {
	g := ringGraph(32, 0)
	e, err := New(g, Config{Combiner: CombinerMutex, Threads: 2}, counterProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	c, f := e.buf.deliveryCounts()
	if c != 0 || f != 0 {
		t.Fatalf("counters ran with CheckInvariants off: combines=%d fills=%d", c, f)
	}
}
