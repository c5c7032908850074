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
	if err := e.mb.auditBarrier(); err != nil {
		return &InvariantError{Superstep: e.superstep, Invariant: "mailbox-state", Detail: err.Error()}
	}
	if err := e.auditConservation(); err != nil {
		return err
	}
	if e.cfg.SelectionBypass {
		if err := e.auditFrontierDedup(); err != nil {
			return err
		}
	}
	return nil
}

// auditConservation checks that every Send this superstep is accounted
// for: it was either combined into an occupied mailbox or filled an
// empty one. Pull supersteps are
// audited like push ones: they count Messages as the logical fan-out
// (out-degree per broadcast) and the collect phase deposits exactly that
// many entries through the counted deliver path, so the same formula
// holds — and additionally pins the broadcast-at-most-once-per-superstep
// contract the outbox-overwrite semantics require.
func (e *Engine[V, M]) auditConservation() error {
	defer e.mb.resetDeliveryCounts()
	var sent uint64
	for _, w := range e.workers {
		sent += w.msgs
	}
	combines, fills := e.mb.deliveryCounts()
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

// resetAuditSeen returns the zeroed slot-indexed membership scratch the
// frontier audits share. It is a byte array reused across supersteps —
// a map here allocates per superstep and dominates the audit on
// million-vertex graphs.
func (e *Engine[V, M]) resetAuditSeen() []uint8 {
	if e.auditSeen == nil {
		e.auditSeen = make([]uint8, e.slots)
	} else {
		clear(e.auditSeen)
	}
	return e.auditSeen
}

// auditFrontierDedup checks the selection-bypass dedup flags against the
// gathered next frontier: every enrolled slot must appear exactly once,
// and every set flag must correspond to an enrolled slot. A duplicate
// would run a vertex twice next superstep; a stray flag would silently
// suppress a future enrolment (§4's correctness hinges on exactly-once
// membership). The set flags must number exactly the enrolments.
func (e *Engine[V, M]) auditFrontierDedup() error {
	seen := e.resetAuditSeen()
	fail := func(format string, args ...any) error {
		return &InvariantError{Superstep: e.superstep, Invariant: "frontier-dedup", Detail: fmt.Sprintf(format, args...)}
	}
	for _, slot := range e.frontierNext {
		if seen[slot] != 0 {
			return fail("vertex %d enrolled twice in the next frontier", e.addr.idOf(int(slot)))
		}
		seen[slot] = 1
		if atomic.LoadUint32(&e.inNext[slot]) == 0 {
			return fail("vertex %d is in the next frontier but its dedup flag is clear", e.addr.idOf(int(slot)))
		}
	}
	var flagged uint64
	for i := range e.inNext {
		if atomic.LoadUint32(&e.inNext[i]) != 0 {
			flagged++
		}
	}
	if flagged != uint64(len(e.frontierNext)) {
		return fail("%d dedup flags set but %d vertices enrolled; a flag leaked without an enrolment", flagged, len(e.frontierNext))
	}
	return nil
}

// auditBypass verifies the §4 implication after the frontier swap: every
// vertex holding a message is in the new frontier.
func (e *Engine[V, M]) auditBypass() error {
	seen := e.resetAuditSeen()
	for _, slot := range e.frontier {
		seen[slot] = 1
	}
	for slot := range seen {
		if e.mb.hasCurrent(slot) && seen[slot] == 0 {
			return fmt.Errorf("core: bypass audit: vertex %d has mail but is not in the frontier", e.addr.idOf(slot))
		}
	}
	return nil
}
