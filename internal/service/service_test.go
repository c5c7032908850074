package service

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

// testGraph builds a deterministic generator graph for tests.
func testGraph(t *testing.T, spec string) *graph.Graph {
	t.Helper()
	g, err := gen.ByName(spec, gen.PresetParams{Divisor: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newTestService builds, populates and starts a Service over the named
// specs; Close is registered as cleanup.
func newTestService(t *testing.T, opts Options, specs ...string) *Service {
	t.Helper()
	s := New(opts)
	for _, spec := range specs {
		if err := s.AddGraph(spec, testGraph(t, spec), "generated"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		view, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		switch view.State {
		case StateDone, StateFailed, StateCancelled:
			return view
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

func u64p(v uint64) *uint64 { return &v }

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Options{}, "ring:64")
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"unknown graph", JobRequest{Graph: "nope", Program: "pagerank"}, "unknown graph"},
		{"unknown program", JobRequest{Graph: "ring:64", Program: "nope"}, "unknown program"},
		{"missing source", JobRequest{Graph: "ring:64", Program: "sssp"}, "source is required"},
		{"source out of range", JobRequest{Graph: "ring:64", Program: "bfs", Params: Params{Source: u64p(64)}}, "identifier range"},
		{"unused param", JobRequest{Graph: "ring:64", Program: "hashmin", Params: Params{Rounds: 5}}, "not used"},
		{"rounds for sssp", JobRequest{Graph: "ring:64", Program: "sssp", Params: Params{Source: u64p(1), Rounds: 3}}, "not used"},
		{"vertex out of range", JobRequest{Graph: "ring:64", Program: "wcc", Params: Params{Vertices: []uint64{99}}}, "identifier range"},
		{"negative rounds", JobRequest{Graph: "ring:64", Program: "pagerank", Params: Params{Rounds: -1}}, "rounds must be"},
		{"tolerance too big", JobRequest{Graph: "ring:64", Program: "pagerank-converged", Params: Params{Tolerance: 2}}, "tolerance must be"},
		{"negative deadline", JobRequest{Graph: "ring:64", Program: "pagerank", Limits: Limits{DeadlineMillis: -1}}, "deadline_ms"},
		{"supersteps beyond cap", JobRequest{Graph: "ring:64", Program: "pagerank", Limits: Limits{MaxSupersteps: 1 << 30}}, "exceeds the service cap"},
	}
	for _, tc := range cases {
		_, err := s.Submit(tc.req)
		var reqErr *RequestError
		if err == nil || !errors.As(err, &reqErr) {
			t.Fatalf("%s: err = %v, want RequestError", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// sameRank compares two PageRank values under the engine's determinism
// contract (DESIGN.md §5.1): float push combines sum in whatever order
// the cores deliver, so independent runs agree to 1e-9, not bit for bit.
// Integer programs and Report.Fingerprint() keep ==.
func sameRank(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// TestConcurrentJobsParity: two jobs on the same resident graph run
// concurrently and both match the algorithms package run directly on
// the identical graph object — the daemon-vs-CLI parity requirement.
func TestConcurrentJobsParity(t *testing.T) {
	const spec = "rmat:8:4"
	s := newTestService(t, Options{Workers: 2}, spec)
	g := testGraph(t, spec) // same generator seed → identical graph

	prV, err := s.Submit(JobRequest{Graph: spec, Program: "pagerank",
		Params: Params{Rounds: 10, Top: 3, Vertices: []uint64{1, 5, 9}}})
	if err != nil {
		t.Fatal(err)
	}
	ssV, err := s.Submit(JobRequest{Graph: spec, Program: "sssp",
		Params: Params{Source: u64p(1), Vertices: []uint64{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}

	pr := waitTerminal(t, s, prV.ID)
	ss := waitTerminal(t, s, ssV.ID)
	if pr.State != StateDone || ss.State != StateDone {
		t.Fatalf("states: pagerank=%s (%s) sssp=%s (%s)", pr.State, pr.Error, ss.State, ss.Error)
	}

	wantRanks, _, err := algorithms.PageRank(g, core.Config{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(g.Base())
	for _, vv := range pr.Result.Values {
		if want := wantRanks[vv.ID-base]; !sameRank(vv.Value, want) {
			t.Fatalf("pagerank vertex %d: %g, want %g", vv.ID, vv.Value, want)
		}
	}
	if len(pr.Result.Top) != 3 {
		t.Fatalf("top: %d entries, want 3", len(pr.Result.Top))
	}
	if pr.Result.Top[0].Value < pr.Result.Top[1].Value || pr.Result.Top[1].Value < pr.Result.Top[2].Value {
		t.Fatalf("top not sorted: %+v", pr.Result.Top)
	}
	var maxRank float64
	for _, r := range wantRanks {
		if r > maxRank {
			maxRank = r
		}
	}
	if !sameRank(pr.Result.Top[0].Value, maxRank) {
		t.Fatalf("top[0] = %g, want the max rank %g", pr.Result.Top[0].Value, maxRank)
	}

	wantDist, _, err := algorithms.SSSP(g, core.Config{}, graph.VertexID(1))
	if err != nil {
		t.Fatal(err)
	}
	reached := 0
	for _, d := range wantDist {
		if d != algorithms.Infinity {
			reached++
		}
	}
	if ss.Result.Reached != reached {
		t.Fatalf("sssp reached = %d, want %d", ss.Result.Reached, reached)
	}
	for _, vv := range ss.Result.Values {
		if want := float64(wantDist[vv.ID-base]); vv.Value != want {
			t.Fatalf("sssp vertex %d: %g, want %g", vv.ID, vv.Value, want)
		}
	}
}

// TestComponentPrograms: hashmin and wcc against the union-find oracle.
func TestComponentPrograms(t *testing.T) {
	const spec = "er:200:300"
	s := newTestService(t, Options{}, spec)
	g := testGraph(t, spec)
	wantWCC := algorithms.ComponentCount(algorithms.RefWCC(g))

	wv, err := s.Submit(JobRequest{Graph: spec, Program: "wcc"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, wv.ID)
	if got.State != StateDone {
		t.Fatalf("wcc: %s (%s)", got.State, got.Error)
	}
	if got.Result.Components != wantWCC {
		t.Fatalf("wcc components = %d, want %d", got.Result.Components, wantWCC)
	}

	hv, err := s.Submit(JobRequest{Graph: spec, Program: "hashmin"})
	if err != nil {
		t.Fatal(err)
	}
	hm := waitTerminal(t, s, hv.ID)
	if hm.State != StateDone {
		t.Fatalf("hashmin: %s (%s)", hm.State, hm.Error)
	}
	if hm.Result.Components < wantWCC {
		t.Fatalf("hashmin (directed) found %d components, fewer than the %d weak ones", hm.Result.Components, wantWCC)
	}

	bv, err := s.Submit(JobRequest{Graph: spec, Program: "bfs", Params: Params{Source: u64p(0), Vertices: []uint64{0}}})
	if err != nil {
		t.Fatal(err)
	}
	bfs := waitTerminal(t, s, bv.ID)
	if bfs.State != StateDone {
		t.Fatalf("bfs: %s (%s)", bfs.State, bfs.Error)
	}
	if bfs.Result.Reached < 1 {
		t.Fatal("bfs reached nothing, not even the source")
	}
	if v := bfs.Result.Values[0]; v.Value != 0 || v.Parent != nil {
		t.Fatalf("bfs source value = %+v, want depth 0 and no parent", v)
	}
}

// TestCacheHitOnCanonicalParams: a resubmission with superficially
// different but canonically identical params is served from the LRU
// without re-running; no_cache forces execution.
func TestCacheHitOnCanonicalParams(t *testing.T) {
	const spec = "ring:128"
	s := newTestService(t, Options{}, spec)

	first, err := s.Submit(JobRequest{Graph: spec, Program: "pagerank",
		Params: Params{Vertices: []uint64{3, 1, 2}}}) // rounds omitted → default 30
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, first.ID)
	if done.State != StateDone || done.Cached {
		t.Fatalf("first run: state=%s cached=%v", done.State, done.Cached)
	}

	// Explicit default rounds, permuted + duplicated vertex list.
	second, err := s.Submit(JobRequest{Graph: spec, Program: "pagerank",
		Params: Params{Rounds: 30, Vertices: []uint64{2, 3, 1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone || second.Result == nil {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	if second.Result != done.Result {
		t.Fatal("cache hit returned a different result object")
	}

	// Different canonical params miss.
	third, err := s.Submit(JobRequest{Graph: spec, Program: "pagerank",
		Params: Params{Rounds: 31, Vertices: []uint64{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different rounds hit the cache")
	}
	waitTerminal(t, s, third.ID)

	// no_cache executes even on a warm key.
	fourth, err := s.Submit(JobRequest{Graph: spec, Program: "pagerank",
		Params: Params{Rounds: 30, Vertices: []uint64{1, 2, 3}}, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Cached {
		t.Fatal("no_cache request served from cache")
	}
	if v := waitTerminal(t, s, fourth.ID); v.State != StateDone {
		t.Fatalf("no_cache run: %s (%s)", v.State, v.Error)
	}
}

// TestAdmissionControl: with no worker draining the queue, submissions
// beyond the queue depth are rejected with ErrQueueFull, not blocked.
func TestAdmissionControl(t *testing.T) {
	s := New(Options{Queue: 2})
	if err := s.AddGraph("g", testGraph(t, "ring:32"), ""); err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Graph: "g", Program: "hashmin", NoCache: true}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(req); err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
	}
	if _, err := s.Submit(req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submission: err = %v, want ErrQueueFull", err)
	}
	if queued, _ := s.Counts(); queued != 2 {
		t.Fatalf("queued = %d, want 2", queued)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submission: err = %v, want ErrClosed", err)
	}
}

// TestDeadlineCancelsOnlyItsJob is the isolation requirement: a job
// whose deadline expires is cancelled through its own context while a
// concurrent job on the same graph finishes correctly, and — with
// checkpointing on — the cancelled job's directory stays on disk
// (resumable), also through Close, while the finished job's is cleaned
// up.
func TestDeadlineCancelsOnlyItsJob(t *testing.T) {
	const spec = "rmat:10:8"
	root := t.TempDir()
	s := newTestService(t, Options{
		Workers:         2,
		CheckpointRoot:  root,
		CheckpointEvery: 2,
	}, spec)

	doomed, err := s.Submit(JobRequest{Graph: spec, Program: "pagerank",
		Params: Params{Rounds: 90000}, Limits: Limits{DeadlineMillis: 50}})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := s.Submit(JobRequest{Graph: spec, Program: "pagerank",
		Params: Params{Rounds: 10, Vertices: []uint64{1}}})
	if err != nil {
		t.Fatal(err)
	}

	dv := waitTerminal(t, s, doomed.ID)
	hv := waitTerminal(t, s, healthy.ID)

	if dv.State != StateCancelled {
		t.Fatalf("doomed job state = %s (%s), want cancelled", dv.State, dv.Error)
	}
	if !strings.Contains(dv.Error, "deadline exceeded") {
		t.Fatalf("doomed job error %q does not mention the deadline", dv.Error)
	}
	if hv.State != StateDone {
		t.Fatalf("healthy job state = %s (%s), want done", hv.State, hv.Error)
	}
	g := testGraph(t, spec)
	wantRanks, _, err := algorithms.PageRank(g, core.Config{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hv.Result.Values[0].Value, wantRanks[1-int(g.Base())]; !sameRank(got, want) {
		t.Fatalf("healthy job vertex 1 rank = %g, want %g", got, want)
	}

	// The cancelled job's checkpoints survive, Close included; the
	// finished job's are gone.
	closeService(t, s)
	if _, err := os.Stat(filepath.Join(s.runDir, doomed.ID)); err != nil {
		t.Fatalf("cancelled job's checkpoint dir missing: %v", err)
	}
	sink, err := core.NewFileSink(filepath.Join(s.runDir, doomed.ID), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	r, _, found, err := sink.LatestGood()
	if err != nil || !found {
		t.Fatalf("cancelled job left no recoverable checkpoint: found=%v err=%v", found, err)
	}
	r.Close()
	if _, err := os.Stat(filepath.Join(s.runDir, healthy.ID)); !os.IsNotExist(err) {
		t.Fatalf("finished job's checkpoint dir not cleaned up: %v", err)
	}
}

// TestCheckpointedConvergedPageRankParity: a pagerank-converged job run
// under the recovery supervisor (CheckpointRoot set, a checkpoint every
// two barriers, each carrying the program's "delta" aggregator) finishes
// exactly like the same job run directly.
func TestCheckpointedConvergedPageRankParity(t *testing.T) {
	const spec = "rmat:8:4"
	req := JobRequest{Graph: spec, Program: "pagerank-converged",
		Params: Params{Tolerance: 1e-6}, Limits: Limits{Threads: 1}}
	run := func(opts Options) *Result {
		t.Helper()
		s := newTestService(t, opts, spec)
		v, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		done := waitTerminal(t, s, v.ID)
		if done.State != StateDone {
			t.Fatalf("pagerank-converged: %s (%s)", done.State, done.Error)
		}
		return done.Result
	}
	direct := run(Options{})
	checkpointed := run(Options{CheckpointRoot: t.TempDir(), CheckpointEvery: 2})
	if direct.ConvergedIn <= 2 {
		t.Fatalf("converged in %d supersteps, before the first checkpoint barrier", direct.ConvergedIn)
	}
	if checkpointed.ConvergedIn != direct.ConvergedIn || checkpointed.RankSum != direct.RankSum {
		t.Fatalf("checkpointed job converged in %d with rank sum %v, direct in %d with %v",
			checkpointed.ConvergedIn, checkpointed.RankSum, direct.ConvergedIn, direct.RankSum)
	}
}

// TestCloseCancelsRunningJobs: shutdown flows through the same context
// path as deadlines — running jobs abort at the next barrier and are
// recorded as cancelled, and Close returns once the workers drained.
func TestCloseCancelsRunningJobs(t *testing.T) {
	s := New(Options{Workers: 1})
	if err := s.AddGraph("g", testGraph(t, "rmat:10:8"), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	view, err := s.Submit(JobRequest{Graph: "g", Program: "pagerank", Params: Params{Rounds: 90000}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is actually running, then pull the plug.
	for {
		v, ok := s.Job(view.ID)
		if !ok {
			t.Fatal("job lost")
		}
		if v.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close with a running job: %v", err)
	}
	v, ok := s.Job(view.ID)
	if !ok {
		t.Fatal("job lost after close")
	}
	if v.State != StateCancelled || !strings.Contains(v.Error, "shutdown") {
		t.Fatalf("job after close: state=%s error=%q, want cancelled by shutdown", v.State, v.Error)
	}
}

// TestJobRetention: finished jobs beyond KeepFinished are forgotten.
func TestJobRetention(t *testing.T) {
	s := newTestService(t, Options{KeepFinished: 2}, "ring:16")
	var ids []string
	for i := 0; i < 4; i++ {
		v, err := s.Submit(JobRequest{Graph: "ring:16", Program: "pagerank",
			Params: Params{Rounds: i + 1}})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, v.ID)
		ids = append(ids, v.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest job not evicted")
	}
	if _, ok := s.Job(ids[3]); !ok {
		t.Fatal("newest job evicted")
	}
}

// TestGraphsListingWhileInEdgesMaterialise: a graph registered with its
// in-adjacency still to be derived lists in_edges true and its resident
// (out-only) memory; a push job leaves that alone; a pull job builds the
// in side while /v1/graphs is being listed from another goroutine, and the
// listing then reports the full figure. Run under -race.
func TestGraphsListingWhileInEdgesMaterialise(t *testing.T) {
	const spec = "rmat:10:8"
	flat := testGraph(t, spec)
	outOnly, withIn := flat.StripInEdges().MemoryBytes(), flat.WithInEdges().MemoryBytes()
	s := New(Options{Workers: 2})
	if err := s.AddGraph("g", flat.StripInEdges().WithInEdgesOnDemand(), "test"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	listing := func() GraphInfo {
		infos := s.Graphs()
		if len(infos) != 1 || !infos[0].InEdges {
			t.Fatalf("listing = %+v, want one graph with in_edges true", infos)
		}
		return infos[0]
	}
	run := func(direction string) JobView {
		v, err := s.Submit(JobRequest{Graph: "g", Program: "sssp", Params: Params{Source: u64p(uint64(flat.Base())), Direction: direction}})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	if got := listing().MemoryBytes; got != outOnly {
		t.Fatalf("memory_bytes before any job = %d, want the out-only %d", got, outOnly)
	}
	push := waitTerminal(t, s, run("").ID)
	if got := listing().MemoryBytes; push.State != StateDone || got != outOnly {
		t.Fatalf("after a push job (%s %s): memory_bytes = %d, want the out-only %d", push.State, push.Error, got, outOnly)
	}

	pullID := run("pull").ID
	for running := true; running; {
		view, _ := s.Job(pullID)
		running = view.State == StateQueued || view.State == StateRunning
		if got := listing().MemoryBytes; got != outOnly && got != withIn {
			t.Fatalf("memory_bytes = %d while the pull job ran; want %d or %d", got, outOnly, withIn)
		}
	}
	pull := waitTerminal(t, s, pullID)
	if pull.State != StateDone || pull.Result.Reached != push.Result.Reached {
		t.Fatalf("pull job: %s %s, reached %d; the push job reached %d", pull.State, pull.Error, pull.Result.Reached, push.Result.Reached)
	}
	if got := listing().MemoryBytes; got != withIn {
		t.Fatalf("memory_bytes after a pull job = %d, want %d", got, withIn)
	}
}
