package core

// Observer is the engine's observability hook. Sinks receive structured
// lifecycle events from which a live telemetry layer (see
// internal/telemetry) can maintain counters, stream trace records, or
// drive progress displays — the per-superstep quantities the paper's §7
// evaluation reasons about, while the run is still going.
//
// Ordering contract (all calls happen on the coordinating goroutine,
// strictly ordered, never concurrently):
//
//   - For every superstep k the engine begins executing, it calls
//     OnSuperstepStart(k) first and OnSuperstepEnd(k, stats) after the
//     barrier — exactly once each, always paired. If the run aborts
//     mid-superstep (a contained compute panic, an invariant violation),
//     the closing OnSuperstepEnd carries the partial statistics gathered
//     so far, marked with StepStats.Partial.
//   - OnRunEnd fires exactly once per run, last, with the final Report
//     (internally consistent on every exit path) and the run's error
//     (nil when converged). An aborted run — cancellation,
//     ErrMaxSupersteps, a compute panic, ErrBypassViolation, an
//     *InvariantError, a checkpoint sink failure — carries a non-nil
//     error, Report.Aborted and Report.AbortReason; Report.Supersteps is
//     then the first superstep that did not complete.
//
// Superstep numbers are absolute: a run resumed from a checkpoint
// continues the original numbering (see Report.FirstSuperstep), so
// events from a resumed run never collide with the original run's.
type Observer interface {
	// OnSuperstepStart announces that superstep s is about to execute.
	OnSuperstepStart(superstep int)
	// OnSuperstepEnd delivers superstep s's statistics after the barrier.
	OnSuperstepEnd(superstep int, s StepStats)
	// OnRunEnd delivers the final report; err is nil iff the run converged.
	OnRunEnd(r Report, err error)
}

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields are skipped. The zero value is a valid no-op observer.
type ObserverFuncs struct {
	SuperstepStart func(superstep int)
	SuperstepEnd   func(superstep int, s StepStats)
	RunEnd         func(r Report, err error)
}

func (o ObserverFuncs) OnSuperstepStart(superstep int) {
	if o.SuperstepStart != nil {
		o.SuperstepStart(superstep)
	}
}

func (o ObserverFuncs) OnSuperstepEnd(superstep int, s StepStats) {
	if o.SuperstepEnd != nil {
		o.SuperstepEnd(superstep, s)
	}
}

func (o ObserverFuncs) OnRunEnd(r Report, err error) {
	if o.RunEnd != nil {
		o.RunEnd(r, err)
	}
}

func (e *Engine[V, M]) observeSuperstepStart(s int) {
	for _, o := range e.observers {
		o.OnSuperstepStart(s)
	}
}

func (e *Engine[V, M]) observeSuperstepEnd(s int, step StepStats) {
	for _, o := range e.observers {
		o.OnSuperstepEnd(s, step)
	}
}
