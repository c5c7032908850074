package core

import (
	"fmt"
	"sync/atomic"
)

// InvariantError reports a violated engine invariant detected by the
// Config.CheckInvariants runtime audit. It always indicates a framework
// bug (or memory corruption), never a user-program mistake: user mistakes
// surface as ordinary errors (ErrBypassViolation, construction errors) or
// as the contained panics Run reports.
type InvariantError struct {
	// Superstep is the superstep at whose barrier the violation was seen.
	Superstep int
	// Invariant names the broken invariant ("mailbox-state",
	// "frontier-dedup", "message-conservation").
	Invariant string
	// Detail describes the violation.
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("core: invariant %q violated at superstep %d: %s", e.Invariant, e.Superstep, e.Detail)
}

// auditInvariants is the Config.CheckInvariants barrier audit. It runs
// single-threaded after every worker has joined the compute barrier (and
// after the frontier was gathered) but before the mailbox buffer swap,
// so the "next" side still holds this superstep's deliveries.
func (e *Engine[V, M]) auditInvariants() error {
	if e.panicked.Load() != nil {
		// A worker died mid-phase; its counters are incomplete and every
		// check below could fire spuriously. Run reports the panic.
		return nil
	}
	if err := e.buf.auditBarrier(); err != nil {
		return &InvariantError{Superstep: e.superstep, Invariant: "mailbox-state", Detail: err.Error()}
	}
	if err := e.auditConservation(); err != nil {
		return err
	}
	if e.cfg.SelectionBypass {
		return e.auditFrontierDedup()
	}
	return nil
}

// auditConservation checks that every Send this superstep is accounted
// for: it was either combined into an occupied mailbox or filled an
// empty one. Pull supersteps are audited like push ones: they count
// Messages as the logical fan-out (out-degree per broadcast) and the
// collect phase folds exactly that many entries, k per receiver counted
// as k-1 combines and one fill, so the same formula holds — and pins the
// broadcast-at-most-once-per-superstep contract the outbox-overwrite
// semantics require.
func (e *Engine[V, M]) auditConservation() error {
	defer e.buf.resetDeliveryCounts()
	var sent uint64
	for _, w := range e.workers {
		sent += w.msgs
	}
	combines, fills := e.buf.deliveryCounts()
	if sent != combines+fills {
		return &InvariantError{
			Superstep: e.superstep,
			Invariant: "message-conservation",
			Detail: fmt.Sprintf("sent %d != mailbox combines %d + mailbox fills %d (= %d); a delivery was lost or double-counted",
				sent, combines, fills, combines+fills),
		}
	}
	return nil
}

// auditFrontierDedup checks the gathered next frontier against the
// enrolment rule: it is duplicate-free and equals the set of occupied
// next-inbox slots. A duplicate would run a vertex twice next superstep,
// an enrolled slot with an empty inbox is an enrolment without its fill,
// and a filled slot missing from the frontier is mail §4 would never
// deliver (after the swap, the frontier must cover every current inbox).
// The rule holds on pull supersteps too — every enrolled slot has a
// flagged in-neighbour its collect deposits from — and no pull dedup flag
// may outlive its collect, or a later pull broadcast could not enrol it.
// A dense next frontier is the occupancy itself, so only that last check
// applies to it. seen is reused scratch: a map would allocate every
// superstep.
func (e *Engine[V, M]) auditFrontierDedup() error {
	fail := func(format string, args ...any) error {
		return &InvariantError{Superstep: e.superstep, Invariant: "frontier-dedup", Detail: fmt.Sprintf(format, args...)}
	}
	for slot := range e.pullEnrol {
		if atomic.LoadUint32(&e.pullEnrol[slot]) != 0 {
			return fail("pull dedup flag of vertex %d leaked past the collect", e.g.ExternalID(slot))
		}
	}
	if e.denseNext {
		return nil
	}
	if e.auditSeen == nil {
		e.auditSeen = make([]uint8, e.g.N())
	}
	seen := e.auditSeen
	clear(seen)
	for _, slot := range e.frontierNext {
		if seen[slot] != 0 {
			return fail("vertex %d enrolled twice in the next frontier", e.g.ExternalID(int(slot)))
		}
		seen[slot] = 1
		if !hasBit(e.buf.hasNext, int(slot)) {
			return fail("vertex %d is in the next frontier but its next inbox is empty", e.g.ExternalID(int(slot)))
		}
	}
	for slot := range seen {
		if seen[slot] == 0 && hasBit(e.buf.hasNext, slot) {
			return fail("vertex %d has a message for the next superstep but is missing from the next frontier", e.g.ExternalID(slot))
		}
	}
	return nil
}
