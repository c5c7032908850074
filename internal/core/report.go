package core

import (
	"fmt"
	"strings"
	"time"
)

// StepStats records one superstep's activity, the quantities the paper's
// §7.2 analysis reasons about (ratio of active vertices, message volume).
type StepStats struct {
	// Ran is the number of vertices executed this superstep.
	Ran int64
	// Messages is the number of Send calls (push) or buffered broadcasts
	// (pull) issued this superstep.
	Messages uint64
	// Active is the number of vertices still active after the superstep.
	Active int64
	// NextFrontier is the size of the next superstep's frontier under
	// selection bypass (0 when bypass is off): how many vertices received
	// a message and will run next.
	NextFrontier int64
	// Direction is the transport this superstep's sends travelled: push
	// (deliveries at send time) or pull (outbox buffering, collect-phase
	// fan-out). Fixed for the whole run except under Config.Direction
	// adaptive, which decides per superstep from the frontier density.
	Direction Direction
	// DirectionSwitched marks a superstep whose direction differs from
	// the previous superstep's — the adaptive switch events
	// ipregel_direction_switches_total counts. Always false on a run's
	// first superstep (a resumed run restarts the comparison).
	DirectionSwitched bool
	// SlotOrder marks a bypass superstep whose frontier reached the cut and
	// ran as a scan of the occupied inboxes in slot order (DESIGN.md §9.1).
	SlotOrder bool
	// Duration is the wall-clock time of the superstep.
	Duration time.Duration
	// WorkerBusy holds each worker's busy time this superstep when
	// Config.TrackWorkerTime is set (nil otherwise).
	WorkerBusy []time.Duration
	// Partial marks a record appended by an abort path for a superstep
	// that did not run to completion (a contained compute panic, an
	// invariant violation): the counts are what the workers had delivered
	// when the run stopped, recorded so the report's totals stay
	// consistent with the engine's actual activity.
	Partial bool
}

// Imbalance returns max/mean of the workers' busy times (1 = perfectly
// balanced; 0 when untracked or idle).
func (s StepStats) Imbalance() float64 {
	var sum, peak time.Duration
	for _, b := range s.WorkerBusy {
		sum += b
		peak = max(peak, b)
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.WorkerBusy))
	return float64(peak) / mean
}

// Report summarises one engine run. It is internally consistent on
// every exit path, aborted or converged: TotalMessages always equals
// the sum over Steps, and Duration covers exactly the supersteps Steps
// records (plus any trailing partial one).
type Report struct {
	// Version is the Fig. 7 legend name of the configuration, e.g.
	// "spinlock+bypass".
	Version string
	// FirstSuperstep is the absolute number of the first superstep this
	// run executed: 0 for a fresh engine, the checkpoint barrier for an
	// engine built by Restore. Steps[i] describes absolute superstep
	// FirstSuperstep+i, so statistics from a resumed run never collide
	// with the original run's.
	FirstSuperstep int
	// Supersteps is the absolute superstep counter at the end of the run:
	// FirstSuperstep plus the number of completed supersteps (a trailing
	// Partial step record is not counted). For a fresh, converged run it
	// is simply the number of supersteps executed.
	Supersteps int
	// TotalMessages counts all messages sent across the run.
	TotalMessages uint64
	// Duration is the superstep execution time — like the paper's
	// methodology it excludes graph loading and preprocessing (§7.1.2).
	Duration time.Duration
	// Converged is true only when the run ended because no vertex was
	// active and no message was in flight.
	Converged bool
	// Aborted is true when the run stopped for any other reason:
	// cancellation, ErrMaxSupersteps, a compute panic, a bypass
	// violation, an invariant failure, or a checkpoint error.
	Aborted bool
	// AbortReason is the abort error's text (empty when Converged).
	AbortReason string
	// Attempts is the number of run attempts a recovery supervisor made
	// to produce this report: 1 for a run that needed no recovery, and
	// always ≥1 when set by RunWithRecovery. 0 means the run was started
	// directly via Run/RunContext with no supervisor.
	Attempts int
	// Recoveries is the number of checkpoint-based resumes the recovery
	// supervisor performed before this report's run finished
	// (Attempts-1 when Attempts is set).
	Recoveries int
	// Steps holds per-superstep statistics; Steps[i] is absolute
	// superstep FirstSuperstep+i.
	Steps []StepStats
}

// String renders a one-line summary. Aborted runs are marked so that a
// failed run's log line cannot be mistaken for a clean one.
func (r Report) String() string {
	s := fmt.Sprintf("%-18s supersteps=%-6d msgs=%-12d time=%v", r.Version, r.Supersteps, r.TotalMessages, r.Duration.Round(time.Microsecond))
	if r.Recoveries > 0 {
		s += fmt.Sprintf(" recoveries=%d", r.Recoveries)
	}
	if r.Aborted {
		s += fmt.Sprintf(" ABORTED (%s)", r.AbortReason)
	}
	return s
}

// RanSeries returns the per-superstep executed-vertex counts.
func (r Report) RanSeries() []int64 {
	out := make([]int64, len(r.Steps))
	for i, s := range r.Steps {
		out[i] = s.Ran
	}
	return out
}

// LoadImbalance averages StepStats.Imbalance over the supersteps that
// recorded worker times (1 = perfectly balanced; 0 when untracked).
func (r Report) LoadImbalance() float64 {
	var sum float64
	n := 0
	for _, s := range r.Steps {
		if im := s.Imbalance(); im > 0 {
			sum += im
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Fingerprint renders the deterministic skeleton of the run as one
// comparable string: superstep counts, message totals and the
// per-superstep ran/messages/active/next-frontier series. Two runs of the
// same program on the same graph must produce equal fingerprints
// regardless of thread count, combiner, direction or graph backend (flat,
// compressed, mmap) — this is what the backend parity battery asserts.
// Timing-dependent fields (Duration, WorkerBusy, Attempts/Recoveries)
// are deliberately excluded: they legitimately vary between equivalent
// runs.
// Direction, DirectionSwitched and SlotOrder are excluded too — they
// describe HOW a superstep's messages travelled and in what order its
// vertices ran: push-only, pull-only and adaptive runs in either order
// produce equal fingerprints.
func (r Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "first=%d supersteps=%d msgs=%d converged=%v aborted=%v\n",
		r.FirstSuperstep, r.Supersteps, r.TotalMessages, r.Converged, r.Aborted)
	for i, s := range r.Steps {
		fmt.Fprintf(&b, "step %d: ran=%d msgs=%d active=%d next=%d partial=%v\n",
			r.FirstSuperstep+i, s.Ran, s.Messages, s.Active, s.NextFrontier, s.Partial)
	}
	return b.String()
}

// Table renders the per-superstep statistics for debugging. Superstep
// numbers are absolute (FirstSuperstep + row index), a superstep run in
// slot order and a trailing partial record are marked, and an aborted run
// carries a final line naming the abort reason.
func (r Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "superstep %8s %12s %8s %12s\n", "ran", "messages", "active", "time")
	for i, s := range r.Steps {
		fmt.Fprintf(&b, "%9d %8d %12d %8d %12v", r.FirstSuperstep+i, s.Ran, s.Messages, s.Active, s.Duration.Round(time.Microsecond))
		if s.SlotOrder {
			b.WriteString(" (slot order)")
		}
		if s.Partial {
			b.WriteString(" (partial)")
		}
		b.WriteByte('\n')
	}
	if r.Aborted {
		fmt.Fprintf(&b, "aborted: %s\n", r.AbortReason)
	}
	return b.String()
}
