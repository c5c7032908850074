package service

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newestCheckpoint returns the highest superstep of a committed
// checkpoint file anywhere under root, or -1 when there is none.
func newestCheckpoint(t *testing.T, root string) int {
	t.Helper()
	newest := -1
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		var step int
		if _, serr := fmt.Sscanf(d.Name(), "ckpt-%d.ipck", &step); serr == nil && !d.IsDir() {
			newest = max(newest, step)
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return newest
}

// waitCheckpoint polls until a checkpoint of superstep step or later is
// committed under root.
func waitCheckpoint(t *testing.T, root string, step int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for newestCheckpoint(t, root) < step {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint of superstep %d or later appeared under %s", step, root)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// entries lists a directory's names.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestFinishedJobsLeaveNoCheckpointDir: a job that ends before its first
// checkpoint barrier never makes a directory, one that checkpointed has
// its directory deleted on success, and Close removes the then empty run
// directory, so the root is left as it was found.
func TestFinishedJobsLeaveNoCheckpointDir(t *testing.T) {
	const spec = "rmat:8:4"
	root := t.TempDir()
	s := New(Options{CheckpointRoot: root})
	if err := s.AddGraph(spec, testGraph(t, spec), "generated"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if got := entries(t, root); len(got) != 1 || filepath.Join(root, got[0]) != s.runDir {
		t.Fatalf("root after Start holds %v, want only the run directory %s", got, s.runDir)
	}

	short, err := s.Submit(JobRequest{Graph: spec, Program: "sssp", Params: Params{Source: u64p(1)}})
	if err != nil {
		t.Fatal(err)
	}
	sv := waitTerminal(t, s, short.ID)
	if sv.State != StateDone {
		t.Fatalf("sssp: %s (%s)", sv.State, sv.Error)
	}
	if sv.Result.Supersteps >= s.opts.CheckpointEvery {
		t.Fatalf("sssp ran %d supersteps, reaching the checkpoint cadence %d; pick a shorter job",
			sv.Result.Supersteps, s.opts.CheckpointEvery)
	}
	if got := entries(t, s.runDir); len(got) != 0 {
		t.Fatalf("a job that never checkpointed left %v in the run directory", got)
	}

	long, err := s.Submit(JobRequest{Graph: spec, Program: "pagerank", Params: Params{Rounds: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if lv := waitTerminal(t, s, long.ID); lv.State != StateDone {
		t.Fatalf("pagerank: %s (%s)", lv.State, lv.Error)
	}
	if got := entries(t, s.runDir); len(got) != 0 {
		t.Fatalf("a job that checkpointed and succeeded left %v in the run directory", got)
	}

	closeService(t, s)
	if got := entries(t, root); len(got) != 0 {
		t.Fatalf("root after Close holds %v, want nothing", got)
	}
}

// TestLaterServiceIgnoresEarlierCheckpoints: job ids restart at j1 in
// every service, so a service started on a root where an earlier one
// left a cancelled j1's checkpoints must not resume them into its own
// j1, which is a different request. Its answer equals a fresh service's.
// (Before services had run directories, the later j1 restored the
// earlier one's superstep-20-or-later checkpoint and answered with 21
// or more supersteps instead of 11.)
func TestLaterServiceIgnoresEarlierCheckpoints(t *testing.T) {
	const spec = "rmat:10:8"
	root := t.TempDir()

	first := New(Options{Workers: 1, CheckpointRoot: root, CheckpointEvery: 2})
	if err := first.AddGraph(spec, testGraph(t, spec), "generated"); err != nil {
		t.Fatal(err)
	}
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Submit(JobRequest{Graph: spec, Program: "pagerank", Params: Params{Rounds: 90000}}); err != nil {
		t.Fatal(err)
	}
	// Past the later job's whole run: resuming it would skip that run.
	waitCheckpoint(t, root, 20)
	closeService(t, first)

	req := JobRequest{Graph: spec, Program: "pagerank", Params: Params{Rounds: 10, Top: 3}}
	answer := func(opts Options) *Result {
		t.Helper()
		s := newTestService(t, opts, spec)
		v, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		done := waitTerminal(t, s, v.ID)
		if done.State != StateDone {
			t.Fatalf("pagerank: %s (%s)", done.State, done.Error)
		}
		return done.Result
	}
	want := answer(Options{})
	got := answer(Options{Workers: 1, CheckpointRoot: root, CheckpointEvery: 2})
	if got.Supersteps != want.Supersteps || got.Recoveries != 0 || !sameRank(got.RankSum, want.RankSum) {
		t.Fatalf("later service answered %d supersteps, rank sum %v, %d recoveries; a fresh one %d, %v",
			got.Supersteps, got.RankSum, got.Recoveries, want.Supersteps, want.RankSum)
	}
	if len(got.Top) != len(want.Top) {
		t.Fatalf("later service's top %v, a fresh one's %v", got.Top, want.Top)
	}
	for i := range want.Top {
		if got.Top[i].ID != want.Top[i].ID || !sameRank(got.Top[i].Value, want.Top[i].Value) {
			t.Fatalf("later service's top %v, a fresh one's %v", got.Top, want.Top)
		}
	}
}

// TestStartRefusesUnusableRoot: a checkpoint root that cannot be made
// fails Start, before any job runs.
func TestStartRefusesUnusableRoot(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{CheckpointRoot: filepath.Join(file, "ckpt")})
	if err := s.Start(); err == nil || !strings.Contains(err.Error(), "checkpoint root") {
		t.Fatalf("Start on a root under a regular file: err = %v, want a checkpoint root error", err)
	}
}
