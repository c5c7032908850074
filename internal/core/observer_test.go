package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

// recObs records every Observer callback in order, for asserting the
// lifecycle contract documented on the Observer interface.
type recObs struct {
	name string
	log  *[]string // optional shared log for fan-out ordering tests

	events []obsEvent
}

type obsEvent struct {
	kind      string // "start" | "end" | "runend"
	superstep int
	stats     StepStats
	report    Report
	err       error
}

func (r *recObs) record(ev obsEvent) {
	r.events = append(r.events, ev)
	if r.log != nil {
		*r.log = append(*r.log, fmt.Sprintf("%s:%s", r.name, ev.kind))
	}
}

func (r *recObs) OnSuperstepStart(s int) { r.record(obsEvent{kind: "start", superstep: s}) }
func (r *recObs) OnSuperstepEnd(s int, st StepStats) {
	r.record(obsEvent{kind: "end", superstep: s, stats: st})
}
func (r *recObs) OnRunEnd(rep Report, err error) {
	r.record(obsEvent{kind: "runend", report: rep, err: err})
}

// verifyLifecycle asserts the ordering contract: paired start/end events
// with consecutive absolute numbering from first, and exactly one
// run-end event, last.
func (r *recObs) verifyLifecycle(t *testing.T, first int) {
	t.Helper()
	if len(r.events) == 0 {
		t.Fatal("observer saw no events")
	}
	runEnds := 0
	next := first
	open := -1 // superstep with a start but no end yet
	for i, ev := range r.events {
		if runEnds > 0 {
			t.Fatalf("event %d (%s) after run_end", i, ev.kind)
		}
		switch ev.kind {
		case "start":
			if open != -1 {
				t.Fatalf("superstep %d started while %d is open", ev.superstep, open)
			}
			if ev.superstep != next {
				t.Fatalf("superstep start %d, want %d", ev.superstep, next)
			}
			open = ev.superstep
		case "end":
			if ev.superstep != open {
				t.Fatalf("superstep end %d, open is %d", ev.superstep, open)
			}
			open = -1
			next = ev.superstep + 1
		case "runend":
			runEnds++
		}
	}
	if runEnds != 1 {
		t.Fatalf("run_end fired %d times, want exactly 1 (and last)", runEnds)
	}
}

func (r *recObs) last() obsEvent { return r.events[len(r.events)-1] }

func (r *recObs) stepEnds() []obsEvent {
	var out []obsEvent
	for _, ev := range r.events {
		if ev.kind == "end" {
			out = append(out, ev)
		}
	}
	return out
}

// assertConsistent asserts the Report invariants finishRun promises on
// every exit path: totals equal the sums over Steps, the absolute
// superstep counter counts completed steps, exactly one of
// Converged/Aborted is set, and only a trailing step may be partial.
func assertConsistent(t *testing.T, rep Report) {
	t.Helper()
	var msgs uint64
	completed := 0
	for i, s := range rep.Steps {
		msgs += s.Messages
		if s.Partial {
			if i != len(rep.Steps)-1 {
				t.Fatalf("partial step record at %d is not trailing", i)
			}
		} else {
			completed++
		}
	}
	if rep.TotalMessages != msgs {
		t.Fatalf("TotalMessages = %d, steps sum to %d", rep.TotalMessages, msgs)
	}
	if rep.Supersteps != rep.FirstSuperstep+completed {
		t.Fatalf("Supersteps = %d, want FirstSuperstep %d + %d completed", rep.Supersteps, rep.FirstSuperstep, completed)
	}
	if rep.Converged == rep.Aborted {
		t.Fatalf("Converged = %v and Aborted = %v; want exactly one", rep.Converged, rep.Aborted)
	}
	if rep.Aborted && rep.AbortReason == "" {
		t.Fatal("aborted report has no AbortReason")
	}
	if rep.Converged && rep.AbortReason != "" {
		t.Fatalf("converged report has AbortReason %q", rep.AbortReason)
	}
	if rep.Duration <= 0 {
		t.Fatal("Duration not set")
	}
}

func TestObserverLifecycleConverged(t *testing.T) {
	g := ringGraph(8, 0)
	rec := &recObs{}
	e, err := New(g, Config{Observers: []Observer{rec}}, counterProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec.verifyLifecycle(t, 0)
	assertConsistent(t, rep)
	if len(rec.stepEnds()) != len(rep.Steps) {
		t.Fatalf("observer saw %d superstep ends, report has %d steps", len(rec.stepEnds()), len(rep.Steps))
	}
	last := rec.last()
	if last.err != nil || !last.report.Converged {
		t.Fatalf("run_end carried err=%v converged=%v", last.err, last.report.Converged)
	}
	var msgs uint64
	for _, ev := range rec.stepEnds() {
		msgs += ev.stats.Messages
	}
	if msgs != rep.TotalMessages {
		t.Fatalf("observer saw %d messages, report totals %d", msgs, rep.TotalMessages)
	}
}

// TestObserverAbortPaths drives every abort path and pins what OnRunEnd
// receives there: the run's error, and the returned report with Aborted,
// AbortReason and Supersteps — the first superstep that did not
// complete, which a trace's abort event carries. Each case's run
// receives the recorder so it can wire extra observers (e.g. a
// cancelling hook) before Run.
func TestObserverAbortPaths(t *testing.T) {
	neverHalt := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			ctx.Broadcast(v, 1)
		},
	}

	cases := []struct {
		name      string
		run       func(t *testing.T, rec *recObs) (Report, error)
		wantErr   func(error) bool
		partial   bool // a trailing partial step record is expected
		wantSteps int  // completed step records expected (partial excluded)
		abortStep int  // Report.Supersteps at the abort
	}{
		{
			name: "cancellation",
			run: func(t *testing.T, rec *recObs) (Report, error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cancelAt1 := ObserverFuncs{SuperstepEnd: func(s int, _ StepStats) {
					if s == 1 {
						cancel()
					}
				}}
				e, err := New(ringGraph(8, 0), Config{Observers: []Observer{rec, cancelAt1}}, neverHalt)
				if err != nil {
					t.Fatal(err)
				}
				return e.RunContext(ctx)
			},
			wantErr:   func(err error) bool { return errors.Is(err, context.Canceled) },
			wantSteps: 2,
			abortStep: 2,
		},
		{
			name: "max-supersteps",
			run: func(t *testing.T, rec *recObs) (Report, error) {
				_, rep, err := Run(ringGraph(8, 0), Config{MaxSupersteps: 4, Observers: []Observer{rec}}, neverHalt)
				return rep, err
			},
			wantErr:   func(err error) bool { return errors.Is(err, ErrMaxSupersteps) },
			wantSteps: 4,
			abortStep: 4,
		},
		{
			name: "compute-panic",
			run: func(t *testing.T, rec *recObs) (Report, error) {
				prog := Program[uint32, uint32]{
					Combine: func(old *uint32, new uint32) { *old += new },
					Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
						if ctx.Superstep() == 2 && v.ID() == 3 {
							panic("boom")
						}
						ctx.Broadcast(v, 1)
					},
				}
				_, rep, err := Run(ringGraph(8, 0), Config{Threads: 2, Observers: []Observer{rec}}, prog)
				return rep, err
			},
			wantErr:   func(err error) bool { return err != nil && strings.Contains(err.Error(), "panicked") },
			partial:   true,
			wantSteps: 2,
			abortStep: 2,
		},
		{
			name: "bypass-violation",
			run: func(t *testing.T, rec *recObs) (Report, error) {
				_, rep, err := Run(ringGraph(8, 0), Config{SelectionBypass: true, Observers: []Observer{rec}}, neverHalt)
				return rep, err
			},
			wantErr:   func(err error) bool { return errors.Is(err, ErrBypassViolation) },
			wantSteps: 1,
			abortStep: 1,
		},
		{
			name: "invariant-error",
			run: func(t *testing.T, rec *recObs) (Report, error) {
				// Corrupt a pull dedup flag for a slot the flood has not
				// reached: no collect clears it, so the frontier-dedup audit
				// must trip at this superstep's barrier.
				var e *Engine[uint32, uint32]
				corrupt := ObserverFuncs{SuperstepStart: func(s int) {
					if s == 2 {
						atomic.StoreUint32(&e.pullEnrol[10], 1)
					}
				}}
				cfg := Config{Combiner: CombinerSpin, Direction: DirectionPull, SelectionBypass: true, CheckInvariants: true, Threads: 2, Observers: []Observer{rec, corrupt}}
				e, err := New(ringGraph(16, 0), cfg, haltingFlood(10))
				if err != nil {
					t.Fatal(err)
				}
				return e.Run()
			},
			wantErr: func(err error) bool {
				var ie *InvariantError
				return errors.As(err, &ie) && ie.Invariant == "frontier-dedup"
			},
			partial:   true,
			wantSteps: 2,
			abortStep: 2,
		},
		{
			name: "checkpoint-failure",
			run: func(t *testing.T, rec *recObs) (Report, error) {
				e, err := New(gridForCheckpoint(t), Config{Observers: []Observer{rec}}, ssspProg(1))
				if err != nil {
					t.Fatal(err)
				}
				sinkErr := errors.New("disk full")
				if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
					Every: 2,
					Sink: func(s int) (io.Writer, error) {
						if s >= 4 {
							return nil, sinkErr
						}
						return io.Discard, nil
					},
					VCodec: u32Codec{}, MCodec: u32Codec{},
				}); err != nil {
					t.Fatal(err)
				}
				return e.Run()
			},
			wantErr:   func(err error) bool { return err != nil && strings.Contains(err.Error(), "disk full") },
			wantSteps: 4,
			abortStep: 4,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recObs{}
			rep, err := tc.run(t, rec)
			if !tc.wantErr(err) {
				t.Fatalf("unexpected error: %v", err)
			}
			if !rep.Aborted || rep.Converged {
				t.Fatalf("report not marked aborted: %+v", rep)
			}
			rec.verifyLifecycle(t, 0)
			assertConsistent(t, rep)
			completed := 0
			for _, s := range rep.Steps {
				if !s.Partial {
					completed++
				}
			}
			if completed != tc.wantSteps {
				t.Fatalf("%d completed step records, want %d", completed, tc.wantSteps)
			}
			hasPartial := len(rep.Steps) > 0 && rep.Steps[len(rep.Steps)-1].Partial
			if hasPartial != tc.partial {
				t.Fatalf("trailing partial record = %v, want %v", hasPartial, tc.partial)
			}
			// run_end sees the returned error and the same aborted report,
			// whose Supersteps is the first superstep that did not complete
			// (after a bypass violation, the one after the violating step).
			last := rec.last()
			if last.kind != "runend" || last.err != err {
				t.Fatalf("run_end carried err=%v, run returned %v", last.err, err)
			}
			got := last.report
			if !got.Aborted || got.AbortReason != err.Error() || got.Fingerprint() != rep.Fingerprint() {
				t.Fatalf("run_end report aborted=%v reason=%q, run returned %+v", got.Aborted, got.AbortReason, rep)
			}
			if got.Supersteps != tc.abortStep {
				t.Fatalf("run_end Report.Supersteps = %d, want %d", got.Supersteps, tc.abortStep)
			}
			// Observer step events and report step records must agree even
			// on the abort path (the in-flight superstep is not dropped).
			ends := rec.stepEnds()
			if len(ends) != len(rep.Steps) {
				t.Fatalf("observer saw %d superstep ends, report has %d steps", len(ends), len(rep.Steps))
			}
			var msgs uint64
			for _, ev := range ends {
				msgs += ev.stats.Messages
			}
			if msgs != rep.TotalMessages {
				t.Fatalf("observer saw %d messages, report totals %d", msgs, rep.TotalMessages)
			}
		})
	}
}

func TestObserverMultiSinkFanOut(t *testing.T) {
	g := ringGraph(8, 0)
	var log []string
	a := &recObs{name: "a", log: &log}
	b := &recObs{name: "b", log: &log}
	if _, _, err := Run(g, Config{Observers: []Observer{a, b}}, counterProgram(2)); err != nil {
		t.Fatal(err)
	}
	a.verifyLifecycle(t, 0)
	b.verifyLifecycle(t, 0)
	if len(a.events) != len(b.events) {
		t.Fatalf("sinks diverged: %d vs %d events", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i].kind != b.events[i].kind || a.events[i].superstep != b.events[i].superstep {
			t.Fatalf("sinks diverged at event %d: %+v vs %+v", i, a.events[i], b.events[i])
		}
	}
	// Config.Observers are notified in list order, for every event.
	for i := 0; i < len(log); i += 2 {
		if !strings.HasPrefix(log[i], "a:") || !strings.HasPrefix(log[i+1], "b:") {
			t.Fatalf("fan-out order broken at %d: %v", i, log[i:i+2])
		}
		if log[i][2:] != log[i+1][2:] {
			t.Fatalf("fan-out pairing broken at %d: %v", i, log[i:i+2])
		}
	}
}

// A nil observer is a construction error naming its index, never a nil
// dereference on the coordinating goroutine at the first superstep.
func TestObserverValidation(t *testing.T) {
	for _, tc := range []struct {
		observers []Observer
		want      string
	}{
		{[]Observer{nil}, "Observers[0]"},
		{[]Observer{&recObs{}, nil}, "Observers[1]"},
	} {
		_, err := New(ringGraph(4, 0), Config{Observers: tc.observers}, counterProgram(1))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("observers %v: want an error naming %s, got %v", tc.observers, tc.want, err)
		}
	}
}

func TestAbortedReportRendering(t *testing.T) {
	g := ringGraph(8, 0)
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			ctx.Broadcast(v, 1)
		},
	}
	_, aborted, err := Run(g, Config{MaxSupersteps: 3}, prog)
	if !errors.Is(err, ErrMaxSupersteps) {
		t.Fatal(err)
	}
	if s := aborted.String(); !strings.Contains(s, "ABORTED") || !strings.Contains(s, "superstep limit") {
		t.Fatalf("aborted String() hides the abort: %q", s)
	}
	if tbl := aborted.Table(); !strings.Contains(tbl, "aborted:") {
		t.Fatalf("aborted Table() hides the abort:\n%s", tbl)
	}

	_, converged, err := Run(g, Config{}, counterProgram(2))
	if err != nil {
		t.Fatal(err)
	}
	if s := converged.String(); strings.Contains(s, "ABORTED") {
		t.Fatalf("converged String() claims abort: %q", s)
	}
	if tbl := converged.Table(); strings.Contains(tbl, "aborted:") {
		t.Fatalf("converged Table() claims abort:\n%s", tbl)
	}

	// A contained panic leaves a trailing partial record, marked in the
	// table.
	_, panicked, err := Run(g, Config{}, Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.Superstep() == 1 {
				panic("boom")
			}
			ctx.Broadcast(v, 1)
		},
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
	if tbl := panicked.Table(); !strings.Contains(tbl, "(partial)") {
		t.Fatalf("partial record not marked:\n%s", tbl)
	}
}

func TestResumedRunContinuesNumbering(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, SelectionBypass: true, Threads: 2}

	var dump bytes.Buffer
	var barrier int
	e, err := New(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
		Every: 3,
		Sink: func(s int) (io.Writer, error) {
			if barrier != 0 { // keep only the first (mid-run) checkpoint
				return io.Discard, nil
			}
			barrier = s
			return &dump, nil
		},
		VCodec: u32Codec{}, MCodec: u32Codec{},
	}); err != nil {
		t.Fatal(err)
	}
	ref, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ref.FirstSuperstep != 0 {
		t.Fatalf("fresh run FirstSuperstep = %d, want 0", ref.FirstSuperstep)
	}
	if barrier == 0 {
		t.Fatal("no checkpoint taken")
	}

	rec := &recObs{}
	rcfg := cfg
	rcfg.Observers = []Observer{rec}
	restored, err := Restore(bytes.NewReader(dump.Bytes()), g, rcfg, ssspProg(1), u32Codec{}, u32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstSuperstep != barrier {
		t.Fatalf("resumed FirstSuperstep = %d, want checkpoint barrier %d", rep.FirstSuperstep, barrier)
	}
	if rep.Supersteps != ref.Supersteps {
		t.Fatalf("resumed absolute Supersteps = %d, reference %d", rep.Supersteps, ref.Supersteps)
	}
	assertConsistent(t, rep)
	// Observer numbering continues the original run's instead of
	// restarting at 0.
	rec.verifyLifecycle(t, barrier)
	if first := rec.events[0]; first.kind != "start" || first.superstep != barrier {
		t.Fatalf("resumed observer started at %+v, want superstep %d", first, barrier)
	}
	// The table renders absolute superstep numbers for the resumed rows.
	if tbl := rep.Table(); !strings.Contains(tbl, fmt.Sprintf("\n%9d ", barrier)) {
		t.Fatalf("resumed Table() does not start at absolute superstep %d:\n%s", barrier, tbl)
	}
	// Steps[i] is absolute superstep FirstSuperstep+i: the resumed run
	// recorded exactly the remaining supersteps.
	if len(rep.Steps) != ref.Supersteps-barrier {
		t.Fatalf("resumed run recorded %d steps, want %d", len(rep.Steps), ref.Supersteps-barrier)
	}
	// A checkpoint taken during a resumed run carries the absolute
	// counter forward: chain one more resume to prove it. The chained
	// barrier stays strictly before convergence (a converged-state
	// checkpoint replays one empty superstep by construction).
	var dump2 bytes.Buffer
	e2, err := Restore(bytes.NewReader(dump.Bytes()), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	barrier2 := 0
	if err := e2.SetCheckpointer(Checkpointer[uint32, uint32]{
		Every: 1,
		Sink: func(s int) (io.Writer, error) {
			if barrier2 == 0 && s > barrier && s < ref.Supersteps {
				barrier2 = s
				return &dump2, nil
			}
			return io.Discard, nil
		},
		VCodec: u32Codec{}, MCodec: u32Codec{},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	e3, err := Restore(bytes.NewReader(dump2.Bytes()), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := e3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep3.FirstSuperstep != barrier2 || rep3.Supersteps != ref.Supersteps {
		t.Fatalf("chained resume: FirstSuperstep=%d (want %d), Supersteps=%d (want %d)",
			rep3.FirstSuperstep, barrier2, rep3.Supersteps, ref.Supersteps)
	}
}
