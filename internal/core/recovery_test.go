package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// flakyProg wraps ssspProg so attempts 1..failures panic at superstep 3;
// later attempts run clean. attempt is advanced by attemptContext.
type flakyProg struct {
	attempt  int
	failures int
}

func (fp *flakyProg) program() Program[uint32, uint32] {
	base := ssspProg(1)
	return Program[uint32, uint32]{
		Combine: base.Combine,
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if fp.attempt <= fp.failures && ctx.Superstep() == 3 {
				panic("flaky: injected failure")
			}
			base.Compute(ctx, v)
		},
	}
}

// attemptContext is the RecoveryOptions.AttemptContext hook: it records
// the attempt number and runs the attempt under the parent context.
func (fp *flakyProg) attemptContext(parent context.Context, attempt int) (context.Context, context.CancelFunc) {
	fp.attempt = attempt
	return parent, func() {}
}

func recoveryFixture(t *testing.T) (cfg Config, cp Checkpointer[uint32, uint32], sink *FileSink) {
	t.Helper()
	cfg = Config{Combiner: CombinerSpin, Threads: 2, CheckInvariants: true}
	sink, err := NewFileSink(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cp = Checkpointer[uint32, uint32]{Every: 1, Sink: sink.Sink, VCodec: u32Codec{}, MCodec: u32Codec{}}
	return cfg, cp, sink
}

func TestRunWithRecoverySucceedsAfterFailures(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg, cp, sink := recoveryFixture(t)
	refE, refRep, err := Run(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}

	fp := &flakyProg{failures: 2}
	var sleeps []time.Duration
	var retries []int
	e, rep, err := RunWithRecovery(context.Background(), g, cfg, fp.program(), cp, sink, RecoveryOptions{
		MaxAttempts:    4,
		Sleep:          func(d time.Duration) { sleeps = append(sleeps, d) },
		AttemptContext: fp.attemptContext,
		OnRetry: func(attempt int, err error) {
			if err == nil {
				t.Error("OnRetry with nil error")
			}
			retries = append(retries, attempt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 3 || rep.Recoveries != 2 {
		t.Fatalf("attempts=%d recoveries=%d, want 3/2", rep.Attempts, rep.Recoveries)
	}
	if rep.Supersteps != refRep.Supersteps {
		t.Fatalf("recovered run ended at %d, reference at %d", rep.Supersteps, refRep.Supersteps)
	}
	// Both failures hit superstep 3; each recovery resumes from barrier 3.
	if rep.FirstSuperstep != 3 {
		t.Fatalf("final attempt resumed from barrier %d, want 3", rep.FirstSuperstep)
	}
	got, want := e.ValuesDense(), refE.ValuesDense()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Fatalf("OnRetry attempts = %v, want [1 2]", retries)
	}
	if len(sleeps) != 2 || sleeps[0] != 100*time.Millisecond || sleeps[1] != 200*time.Millisecond {
		t.Fatalf("backoff schedule = %v, want [100ms 200ms]", sleeps)
	}
}

func TestRunWithRecoveryExhaustsAttempts(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg, cp, sink := recoveryFixture(t)
	fp := &flakyProg{failures: 1 << 30} // never heals
	var sleeps []time.Duration
	_, _, err := RunWithRecovery(context.Background(), g, cfg, fp.program(), cp, sink, RecoveryOptions{
		MaxAttempts:    8,
		Sleep:          func(d time.Duration) { sleeps = append(sleeps, d) },
		AttemptContext: fp.attemptContext,
	})
	if err == nil || !strings.Contains(err.Error(), "after 8 attempts") {
		t.Fatalf("err = %v, want exhaustion after 8 attempts", err)
	}
	if fp.attempt != 8 {
		t.Fatalf("ran %d attempts, want 8", fp.attempt)
	}
	// Exponential backoff from 100ms, capped at 5s, one sleep between
	// consecutive attempts.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond, 5 * time.Second}
	if !slices.Equal(sleeps, want) {
		t.Fatalf("backoff schedule = %v, want %v", sleeps, want)
	}
}

func TestRunWithRecoveryParentCancelStops(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg, cp, sink := recoveryFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fp := &flakyProg{}
	_, _, err := RunWithRecovery(ctx, g, cfg, fp.program(), cp, sink, RecoveryOptions{
		MaxAttempts:    5,
		Sleep:          func(time.Duration) {},
		AttemptContext: fp.attemptContext,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fp.attempt != 1 {
		t.Fatalf("cancelled parent burned %d attempts, want 1", fp.attempt)
	}
}

func TestRunWithRecoveryValidation(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg, cp, sink := recoveryFixture(t)
	if _, _, err := RunWithRecovery(context.Background(), g, cfg, ssspProg(1), cp, nil, RecoveryOptions{}); err == nil {
		t.Fatal("nil FileSink accepted")
	}
	// A restore error — here a program declaring an aggregator the
	// checkpoint lacks — is fatal, not retried: no attempt starts.
	if err := os.WriteFile(filepath.Join(sink.dir, checkpointName(2)), captureCheckpoints(t, cfg, 2)[0], 0o644); err != nil {
		t.Fatal(err)
	}
	fp := &flakyProg{}
	prog := fp.program()
	prog.Aggregators = []Aggregator{{"delta", AggSum}}
	_, _, err := RunWithRecovery(context.Background(), g, cfg, prog, cp, sink, RecoveryOptions{
		MaxAttempts:    3,
		Sleep:          func(time.Duration) {},
		AttemptContext: fp.attemptContext,
	})
	if err == nil || !strings.Contains(err.Error(), `"delta"`) {
		t.Fatalf("err = %v, want the restore error naming the aggregator", err)
	}
	if fp.attempt != 0 {
		t.Fatalf("fatal restore error started %d attempts", fp.attempt)
	}
}

// TestFileSinkPrunesAndSkipsCorrupt covers the sink's retention and
// latest-good discovery directly: keep=2 retains the two newest
// checkpoints, and corrupting the newest makes LatestGood fall back to
// the one before it.
func TestFileSinkPrunesAndSkipsCorrupt(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg, cp, sink := recoveryFixture(t)
	e, err := New(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpointer(cp); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	steps := sink.committed()
	if len(steps) != 2 {
		t.Fatalf("keep=2 retained %v", steps)
	}
	newest := steps[len(steps)-1]
	if newest != rep.Supersteps-1 {
		// The terminal barrier is never checkpointed; the newest one is
		// the barrier before convergence.
		t.Fatalf("newest checkpoint at barrier %d, want %d", newest, rep.Supersteps-1)
	}
	r, got, found, err := sink.LatestGood()
	if err != nil || !found || got != newest {
		t.Fatalf("LatestGood = %d/%v/%v, want %d", got, found, err, newest)
	}
	r.Close()

	// Corrupt the newest file; discovery must fall back.
	path := filepath.Join(sink.dir, checkpointName(newest))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, got, found, err = sink.LatestGood()
	if err != nil || !found || got != steps[0] {
		t.Fatalf("LatestGood after corruption = %d/%v/%v, want fallback to %d", got, found, err, steps[0])
	}
	r.Close()
}

// TestRecoverySkipsMultiShardCheckpoint: a checkpoint directory that
// still holds a file written by the removed sharded engine must not fail
// every recovery attempt (a restore error is fatal to the supervisor).
// VerifyCheckpoint rejects the file by name, so LatestGood never offers
// it: the run resumes from an older good barrier when there is one and
// starts fresh when there is not.
func TestRecoverySkipsMultiShardCheckpoint(t *testing.T) {
	sharded, err := os.ReadFile(shardedFixture) // barrier 4 of a 4-shard run
	if err != nil {
		t.Fatal(err)
	}
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, Threads: 2, CheckInvariants: true}
	refE, refRep, err := Run(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	want := refE.ValuesDense()
	barrier2 := captureCheckpoints(t, cfg, 2)[0]

	for _, tc := range []struct {
		name     string
		older    []byte // a good barrier-2 checkpoint beside the sharded file, or nil
		resumeAt int
	}{
		{"falls back to an older good barrier", barrier2, 2},
		{"starts fresh", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink, err := NewFileSink(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			if err := os.WriteFile(filepath.Join(sink.dir, checkpointName(4)), sharded, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.older != nil {
				if err := os.WriteFile(filepath.Join(sink.dir, checkpointName(2)), tc.older, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r, step, found, err := sink.LatestGood()
			if err != nil || found != (tc.older != nil) || step != tc.resumeAt {
				t.Fatalf("LatestGood = barrier %d, found %v, err %v; want barrier %d, found %v", step, found, err, tc.resumeAt, tc.older != nil)
			}
			if found {
				r.Close()
			}
			cp := Checkpointer[uint32, uint32]{Every: 1, Sink: sink.Sink, VCodec: u32Codec{}, MCodec: u32Codec{}}
			e, rep, err := RunWithRecovery(context.Background(), g, cfg, ssspProg(1), cp, sink, RecoveryOptions{MaxAttempts: 2})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attempts != 1 || rep.FirstSuperstep != tc.resumeAt || rep.Supersteps != refRep.Supersteps {
				t.Fatalf("attempts=%d, resumed from barrier %d, ended at %d; want 1 attempt from barrier %d ending at %d",
					rep.Attempts, rep.FirstSuperstep, rep.Supersteps, tc.resumeAt, refRep.Supersteps)
			}
			for i, got := range e.ValuesDense() {
				if got != want[i] {
					t.Fatalf("dist[%d] = %d, want %d", i, got, want[i])
				}
			}
		})
	}
}
