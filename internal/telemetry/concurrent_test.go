package telemetry

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ipregel/internal/core"
)

// TestConcurrentRunsSharedCollectorSeparateSinks is the resident-service
// scenario in miniature, run under the race detector with the engine's
// full invariant audit on: two engines execute concurrently in one
// process, sharing one telemetry collector through per-job scopes and
// one checkpoint root through a sink directory per job, as ipregeld's
// jobs do. One job is cancelled mid-run through its context (the
// service's deadline path — triggered here from a superstep observer so
// the test is deterministic); the other must converge untouched. Afterwards the
// metrics must attribute per job, the global counters must be exact
// sums, and the cancelled job's checkpoint must still restore and run
// to the correct result.
func TestConcurrentRunsSharedCollectorSeparateSinks(t *testing.T) {
	collector := NewCollector()
	dir := t.TempDir()

	j1, err := collector.Job("cancelled")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := collector.Job("converged")
	if err != nil {
		t.Fatal(err)
	}
	sink1, err := core.NewFileSink(filepath.Join(dir, "cancelled"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sink1.Close()
	sink2, err := core.NewFileSink(filepath.Join(dir, "converged"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()

	const longSteps = 60 // job 1 would converge at longSteps+2 if not cancelled
	g1, g2 := ring(64), ring(128)
	prog1, prog2 := flood(longSteps), flood(8)

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	cancelAt := core.ObserverFuncs{SuperstepEnd: func(s int, _ core.StepStats) {
		if s >= 6 {
			cancel1()
		}
	}}

	var (
		wg         sync.WaitGroup
		rep1, rep2 core.Report
		err1, err2 error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		cfg := core.Config{Threads: 2, CheckInvariants: true, Observers: []core.Observer{j1, cancelAt}}
		_, rep1, err1 = core.RunWithRecovery(ctx1, g1, cfg, prog1,
			core.Checkpointer[uint32, uint32]{Every: 2, Sink: sink1.Sink, VCodec: u32c{}, MCodec: u32c{}},
			sink1,
			core.RecoveryOptions{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	}()
	go func() {
		defer wg.Done()
		cfg := core.Config{Threads: 2, CheckInvariants: true, Observers: []core.Observer{j2}}
		_, rep2, err2 = core.RunWithRecovery(context.Background(), g2, cfg, prog2,
			core.Checkpointer[uint32, uint32]{Every: 2, Sink: sink2.Sink, VCodec: u32c{}, MCodec: u32c{}},
			sink2,
			core.RecoveryOptions{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	}()
	wg.Wait()

	// Both reports, each with its own fate.
	if err2 != nil {
		t.Fatalf("the unconstrained job must converge: %v\n%s", err2, rep2.Table())
	}
	if !rep2.Converged || rep2.Supersteps < 8 {
		t.Fatalf("job 2 report: converged=%v supersteps=%d, want a full converged run", rep2.Converged, rep2.Supersteps)
	}
	if err1 == nil {
		t.Fatal("the cancelled job reported success")
	}
	if !rep1.Aborted {
		t.Fatalf("job 1 report not marked aborted: %+v", rep1)
	}

	// Metrics attribution: per-job scopes are truthful, globals are sums.
	s1, s2, g := j1.Snapshot(), j2.Snapshot(), collector.Snapshot()
	if s1["ipregel_runs_aborted_total"] != 1 || s2["ipregel_runs_aborted_total"] != 0 {
		t.Fatalf("abort attribution: job1=%d job2=%d", s1["ipregel_runs_aborted_total"], s2["ipregel_runs_aborted_total"])
	}
	if s2["ipregel_runs_converged_total"] != 1 {
		t.Fatalf("job2 converged_total = %d", s2["ipregel_runs_converged_total"])
	}
	for _, name := range []string{"ipregel_messages_total", "ipregel_supersteps_total", "ipregel_runs_total", "ipregel_vertices_ran_total"} {
		if s1[name]+s2[name] != g[name] {
			t.Fatalf("%s: %d+%d != global %d", name, s1[name], s2[name], g[name])
		}
	}
	if g["ipregel_runs_active"] != 0 {
		t.Fatalf("runs_active = %d after both runs ended", g["ipregel_runs_active"])
	}
	j1.Release()
	j2.Release()

	// The cancelled job's checkpoint survived its neighbour's pruning and
	// restores into a run that completes with the correct result.
	r, ckptStep, found, err := sink1.LatestGood()
	if err != nil || !found {
		t.Fatalf("cancelled job left no recoverable checkpoint: found=%v err=%v", found, err)
	}
	if ckptStep < 1 || ckptStep > 8 {
		t.Fatalf("checkpoint superstep %d outside the cancelled window", ckptStep)
	}
	resumeCfg := core.Config{Threads: 2, CheckInvariants: true}
	resumed, err := core.Restore(r, g1, resumeCfg, flood(longSteps), u32c{}, u32c{})
	r.Close()
	if err != nil {
		t.Fatalf("restore from the cancelled job's checkpoint: %v", err)
	}
	resRep, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !resRep.Converged || resRep.Supersteps < longSteps {
		t.Fatalf("resumed run: converged=%v supersteps=%d, want a full run past %d", resRep.Converged, resRep.Supersteps, longSteps)
	}
	if resRep.FirstSuperstep != ckptStep {
		t.Fatalf("resumed run started at %d, want the checkpoint barrier %d", resRep.FirstSuperstep, ckptStep)
	}

	// Correctness parity: the resumed result equals an uninterrupted run.
	ref, _, err := core.Run(g1, core.Config{Threads: 2}, flood(longSteps))
	if err != nil {
		t.Fatal(err)
	}
	want, got := ref.ValuesDense(), resumed.ValuesDense()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("vertex %d: resumed value %d != uninterrupted %d", i, got[i], want[i])
		}
	}
}
