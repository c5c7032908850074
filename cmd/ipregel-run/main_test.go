package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graphio"
	"ipregel/internal/service"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, sb.String())
	}
	return sb.String()
}

func TestRunAppsOnGeneratedGraphs(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-app", "pagerank", "-graph", "rmat:8:4", "-direction", "pull", "-rounds", "5"}, "broadcast"},
		{[]string{"-app", "hashmin", "-graph", "ring:30", "-combiner", "spinlock", "-bypass"}, "components: 1"},
		{[]string{"-app", "sssp", "-graph", "road:10:10", "-combiner", "mutex", "-source", "1"}, "reached: 100 of 100"},
		{[]string{"-app", "bfs", "-graph", "chain:10", "-source", "0"}, "reached: 10 of 10"},
		{[]string{"-app", "wsssp", "-graph", "road:8:8", "-combiner", "spinlock", "-source", "1"}, "reached: 64 of 64"},
		{[]string{"-app", "pagerank-converged", "-graph", "rmat:7:4", "-combiner", "spinlock"}, "converged in"},
		{[]string{"-app", "pagerank", "-graph", "ring:20", "-framework", "pregelplus", "-nodes", "3", "-rounds", "3"}, "Pregel+ 3 node(s)"},
		{[]string{"-app", "hashmin", "-graph", "ring:10", "-v"}, "superstep"},
		{[]string{"-app", "wcc", "-graph", "chain:10"}, "weak components: 1"},
		{[]string{"-app", "sssp", "-graph", "road:10:10", "-combiner", "mutex", "-threads", "4", "-source", "1"}, "reached: 100 of 100"},
		{[]string{"-app", "scc", "-graph", "ring:12"}, "strong components: 1"},
		{[]string{"-app", "reach64", "-graph", "chain:10", "-source", "0"}, "reached: 10 of 10"},
	}
	for _, c := range cases {
		out := runOK(t, c.args...)
		if !strings.Contains(out, c.want) {
			t.Fatalf("args %v: output missing %q:\n%s", c.args, c.want, out)
		}
	}
}

// TestRunSCCPrintsNoEmptyReport: scc runs the engine several times and
// keeps none of their reports, so neither its summary nor its -v table
// may print a zero report as if it were the run's.
func TestRunSCCPrintsNoEmptyReport(t *testing.T) {
	out := runOK(t, "-app", "scc", "-graph", "rmat:10:8", "-v")
	if !strings.Contains(out, "strong components: 439") {
		t.Fatalf("no strong component count:\n%s", out)
	}
	if strings.Contains(out, "supersteps=") || strings.Contains(out, "superstep ") {
		t.Fatalf("scc printed an engine report it does not have:\n%s", out)
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("1 2\n2 3\n3 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-app", "hashmin", "-graph-file", path)
	if !strings.Contains(out, "components: 1") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunWeightedFromDIMACSFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.gr")
	if err := os.WriteFile(path, []byte("p sp 3 3\na 1 2 5\na 2 3 5\na 1 3 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-app", "wsssp", "-graph-file", path, "-source", "1")
	if !strings.Contains(out, "reached: 3 of 3") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{
		{"-app", "nope", "-graph", "ring:5"},
		{"-graph", "bogus"},
		{"-combiner", "bogus", "-graph", "ring:5"},
		{"-framework", "bogus", "-graph", "ring:5"},
		{"-app", "wsssp", "-graph", "ring:5"},                           // weighted needs road spec or file
		{"-app", "bfs", "-graph", "ring:5", "-framework", "pregelplus"}, // unsupported on baseline
		{"-app", "pagerank", "-graph", "ring:5", "-bypass"},             // PageRank under bypass (§4)
		{"-badflag"},
	} {
		if err := run(args, &sb); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
}

// TestRunRejectsOutOfRangeValues pins the numeric flags' range checks,
// the source and round checks ipregeld makes on a job's parameters among
// them: a source outside the graph's identifier range (also one that
// only wraps into it as a uint32), a PageRank round count below 1, a
// supervisor with no attempt, and a Pregel+ cluster with no node are
// usage errors naming the flag and its valid range, not runs that
// quietly reach nothing or fall back to a default. So are a round count
// above ipregeld's cap and a -rounds or -source the app does not read.
func TestRunRejectsOutOfRangeValues(t *testing.T) {
	cases := []struct {
		args    []string
		wantSub string
	}{
		{[]string{"-app", "sssp", "-graph", "road:10:10", "-source", "99999"}, "-source 99999 outside the graph's identifier range [1, 101)"},
		{[]string{"-app", "sssp", "-graph", "road:10:10", "-source", "99999", "-framework", "pregelplus"}, "-source 99999 outside"},
		{[]string{"-app", "wsssp", "-graph", "road:8:8", "-source", "0"}, "-source 0 outside the graph's identifier range [1, 65)"},
		{[]string{"-app", "bfs", "-graph", "chain:10", "-source", "10"}, "-source 10 outside the graph's identifier range [0, 10)"},
		{[]string{"-app", "reach64", "-graph", "chain:10", "-source", "4294967298"}, "-source 4294967298 outside"},
		{[]string{"-app", "pagerank", "-graph", "ring:5", "-rounds", "-1"}, "-rounds must be at least 1 (got -1)"},
		{[]string{"-app", "pagerank", "-graph", "ring:5", "-rounds", "0", "-framework", "pregelplus"}, "-rounds must be at least 1 (got 0)"},
		{[]string{"-app", "hashmin", "-graph", "ring:5", "-recover-attempts", "0"}, "-recover-attempts must be at least 1 (got 0)"},
		{[]string{"-app", "pagerank", "-graph", "ring:5", "-framework", "pregelplus", "-nodes", "0"}, "-nodes must be at least 1 (got 0)"},
		{[]string{"-app", "pagerank", "-graph", "ring:5", "-rounds", "100001"}, "-rounds must be in [1, 100000]"},
		{[]string{"-app", "hashmin", "-graph", "ring:5", "-rounds", "5"}, "-rounds is not used by hashmin"},
		{[]string{"-app", "sssp", "-graph", "road:10:10", "-source", "1", "-rounds", "3"}, "-rounds is not used by sssp"},
		{[]string{"-app", "hashmin", "-graph", "ring:5", "-rounds", "5", "-framework", "pregelplus"}, "-rounds is not used by hashmin"},
		{[]string{"-app", "pagerank", "-graph", "ring:5", "-source", "1"}, "-source is not used by pagerank"},
		{[]string{"-app", "scc", "-graph", "ring:5", "-source", "1"}, "-source is not used by scc"},
	}
	for _, c := range cases {
		var sb strings.Builder
		err := run(c.args, &sb)
		if err == nil {
			t.Fatalf("args %v: expected error, got a run:\n%s", c.args, sb.String())
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("args %v: error %q does not mention %q", c.args, err, c.wantSub)
		}
	}
}

// TestRunFlagValidation pins the argument checks: an explicit
// non-positive -threads is a usage error (the unset default 0 still
// means GOMAXPROCS), -direction is an iPregel-only feature, the removed
// FemtoGraph-style framework is unknown, the removed broadcast combiner
// points at -direction pull, the removed CAS combiner is unknown, and
// the flags of the removed shard layer, addressing option, adaptive
// threshold, sender cache and hub splitting are the flag package's
// "provided but not defined", not accepted and ignored.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		args    []string
		wantSub string
	}{
		{[]string{"-threads", "0", "-graph", "ring:5"}, "-threads must be at least 1"},
		{[]string{"-threads", "-2", "-graph", "ring:5"}, "-threads must be at least 1"},
		{[]string{"-direction", "pull", "-framework", "pregelplus", "-graph", "ring:5"}, "does not support"},
		{[]string{"-framework", "femtograph", "-graph", "ring:5"}, "unknown framework"},
		{[]string{"-shards", "4", "-graph", "ring:5"}, "flag provided but not defined: -shards"},
		{[]string{"-addressing", "offset", "-graph", "ring:5"}, "flag provided but not defined: -addressing"},
		{[]string{"-partition", "hash", "-graph", "ring:5"}, "flag provided but not defined: -partition"},
		{[]string{"-sender-combining", "-graph", "ring:5"}, "flag provided but not defined: -sender-combining"},
		{[]string{"-hub-split", "-graph", "ring:5"}, "flag provided but not defined: -hub-split"},
		{[]string{"-hub-cut", "8", "-graph", "ring:5"}, "flag provided but not defined: -hub-cut"},
		{[]string{"-app", "sssp", "-graph", "ring:5", "-direction-threshold", "0.2"}, "flag provided but not defined: -direction-threshold"},
		{[]string{"-app", "pagerank", "-graph", "ring:5", "-combiner", "broadcast"}, "direction pull"},
		{[]string{"-app", "sssp", "-graph", "ring:5", "-combiner", "atomic"}, "mutex | spinlock"},
	}
	for _, c := range cases {
		var sb strings.Builder
		err := run(c.args, &sb)
		if err == nil {
			t.Fatalf("args %v: expected error", c.args)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("args %v: error %q does not mention %q", c.args, err, c.wantSub)
		}
	}
	// The untouched default (-threads omitted) must keep meaning "all
	// processors" — no error.
	runOK(t, "-app", "hashmin", "-graph", "ring:10")
}

// TestRunRecoverable drives the -checkpoint-dir / -chaos path: every
// app of the app table survives an injected mid-run panic, reports the
// recovery, and still prints its usual summary line.
func TestRunRecoverable(t *testing.T) {
	cases := []struct {
		app  string
		args []string
		want string
	}{
		{"sssp", []string{"-graph", "road:10:10", "-combiner", "spinlock", "-bypass", "-source", "1"}, "reached: 100 of 100"},
		{"hashmin", []string{"-graph", "road:8:8", "-combiner", "mutex"}, "components: 1"},
		{"sssp", []string{"-graph", "road:10:10", "-combiner", "mutex", "-threads", "4", "-source", "1"}, "reached: 100 of 100"},
		{"pagerank", []string{"-graph", "rmat:7:4", "-rounds", "8"}, "ranks computed for 128 vertices"},
		{"pagerank-converged", []string{"-graph", "rmat:7:4"}, "converged in"},
		{"bfs", []string{"-graph", "chain:10", "-source", "0"}, "reached: 10 of 10"},
		{"wcc", []string{"-graph", "chain:10", "-combiner", "mutex", "-bypass"}, "weak components: 1"},
		{"wsssp", []string{"-graph", "road:8:8", "-source", "1"}, "reached: 64 of 64"},
		{"reach64", []string{"-graph", "chain:10", "-source", "0"}, "reached: 10 of 10"},
	}
	for _, c := range cases {
		args := append([]string{
			"-app", c.app,
			"-checkpoint-dir", t.TempDir(),
			"-checkpoint-every", "2",
			"-chaos", "seed=11,panic@3",
		}, c.args...)
		out := runOK(t, args...)
		for _, want := range []string{c.want, "recovery: attempt 1 failed", "chaos: fired panic@3", "recoveries=1"} {
			if !strings.Contains(out, want) {
				t.Fatalf("app %s: output missing %q:\n%s", c.app, want, out)
			}
		}
	}
}

// TestRunRecoverableResumesAcrossInvocations covers the operator story:
// a run killed by fault exhaustion leaves checkpoints behind, and a
// second invocation pointed at the same directory resumes from them
// instead of superstep 0.
func TestRunRecoverableResumesAcrossInvocations(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-app", "sssp", "-graph", "road:10:10", "-combiner", "spinlock", "-source", "1",
		"-checkpoint-dir", dir, "-checkpoint-every", "2"}

	// First invocation: one attempt, killed at superstep 5 → exhaustion.
	var sb strings.Builder
	args := append([]string{"-chaos", "seed=1,panic@5", "-recover-attempts", "1"}, base...)
	if err := run(args, &sb); err == nil || !strings.Contains(err.Error(), "after 1 attempts") {
		t.Fatalf("first invocation: err = %v, want attempt exhaustion\n%s", err, sb.String())
	}

	// Second invocation, same directory, no faults: must resume mid-run.
	out := runOK(t, base...)
	if !strings.Contains(out, "reached: 100 of 100") {
		t.Fatalf("resumed run did not finish:\n%s", out)
	}
}

// TestRunRecoverableErrors pins the flag-validation and app-support
// errors of the recovery path.
func TestRunRecoverableErrors(t *testing.T) {
	var sb strings.Builder
	x := filepath.Join(t.TempDir(), "x")
	for _, args := range [][]string{
		{"-chaos", "panic@3", "-graph", "ring:5"},                                                // -chaos without -checkpoint-dir
		{"-checkpoint-dir", x, "-framework", "pregelplus", "-graph", "ring:5"},                   // wrong framework
		{"-app", "scc", "-checkpoint-dir", x, "-graph", "ring:5"},                                // unsupported app
		{"-app", "sssp", "-checkpoint-dir", x, "-chaos", "panic@3,seed=1", "-graph", "ring:5"},   // bad spec: seed must lead
		{"-app", "sssp", "-checkpoint-dir", x, "-chaos", "seed=1,explode@3", "-graph", "ring:5"}, // unknown fault
	} {
		if err := run(args, &sb); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
}

// TestRunCheckpointDirCheckedFirst: the sink makes its directory only at
// the first checkpoint, so the CLI makes -checkpoint-dir itself; a path
// it cannot make is refused, naming the flag, before the graph loads and
// before superstep 0.
func TestRunCheckpointDirCheckedFirst(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{"-app", "sssp", "-graph", "ring:64", "-checkpoint-dir", filepath.Join(file, "ckpt")}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("-checkpoint-dir under a regular file: err = %v, want one naming the flag", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("the run got past the directory check; it printed %q", sb.String())
	}

	dir := filepath.Join(t.TempDir(), "new", "ckpt")
	sb.Reset()
	if err := run([]string{"-app", "sssp", "-graph", "ring:64", "-checkpoint-dir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("-checkpoint-dir not made: %v", err)
	}
}

// summaryLines keeps the lines of a run's output that must not depend on
// the graph backend or the direction: the app's result and the superstep
// and message totals (without the version name and the timing).
func summaryLines(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "reached:"):
			keep = append(keep, line)
		case strings.Contains(line, "supersteps="):
			fields := strings.Fields(line)
			keep = append(keep, strings.Join(fields[1:len(fields)-1], " "))
		}
	}
	return strings.Join(keep, "\n")
}

// TestRunMappedBackend covers -graph-backend mmap through the CLI:
// wsssp over a mapped IPG2 file (it used to be refused at open) matches
// the flat backend, an unweighted file fails it with the flat backend's
// error, and sssp over a mapped IPG3 file derives the in-edges only when
// the run pulls — same results either way.
func TestRunMappedBackend(t *testing.T) {
	dir := t.TempDir()
	weighted := filepath.Join(dir, "w.bin")
	if err := graphio.WriteFile(weighted, gen.WeightedRoad(gen.RoadParams{Rows: 20, Cols: 20, Base: 1, Seed: 1}, 1, 1000)); err != nil {
		t.Fatal(err)
	}
	road, err := gen.Road(gen.RoadParams{Rows: 20, Cols: 20, Base: 1, Seed: 1}).Compress()
	if err != nil {
		t.Fatal(err)
	}
	unweighted := filepath.Join(dir, "u.bin") // IPG3
	if err := graphio.WriteFile(unweighted, road); err != nil {
		t.Fatal(err)
	}

	wantW := summaryLines(runOK(t, "-app", "wsssp", "-graph-file", weighted, "-source", "1"))
	gotW := runOK(t, "-app", "wsssp", "-graph-file", weighted, "-source", "1", "-graph-backend", "mmap")
	if !strings.Contains(wantW, "reached: 400 of 400") || summaryLines(gotW) != wantW {
		t.Fatalf("wsssp over the mapped IPG2 file:\n%s\nflat backend:\n%s", gotW, wantW)
	}
	var sb strings.Builder
	flatErr := run([]string{"-app", "wsssp", "-graph-file", unweighted, "-source", "1"}, &sb)
	mmapErr := run([]string{"-app", "wsssp", "-graph-file", unweighted, "-source", "1", "-graph-backend", "mmap"}, &sb)
	if flatErr == nil || mmapErr == nil || flatErr.Error() != mmapErr.Error() {
		t.Fatalf("wsssp on an unweighted file: flat backend says %v, mmap says %v; want the same error", flatErr, mmapErr)
	}

	want := summaryLines(runOK(t, "-app", "sssp", "-graph-file", unweighted, "-source", "1"))
	for direction, derived := range map[string]string{"push": "(in-edges never derived)", "pull": "(in-edges derived)"} {
		out := runOK(t, "-app", "sssp", "-graph-file", unweighted, "-source", "1", "-graph-backend", "mmap", "-direction", direction)
		if !strings.Contains(out, "in-edges derived on demand") || !strings.Contains(out, derived) {
			t.Fatalf("-direction %s: output should announce on-demand in-edges and end with %q:\n%s", direction, derived, out)
		}
		if got := summaryLines(out); got != want {
			t.Fatalf("-direction %s over the mapped file:\n%s\nflat backend:\n%s", direction, got, want)
		}
	}
}

// TestFrontEndsAgree runs every program ipregeld serves through this
// CLI and through service.Submit on one graph. Both front ends dispatch
// through the app table, so they must report the same supersteps and the
// same reached count, component count or rank sum.
func TestFrontEndsAgree(t *testing.T) {
	const spec = "rmat:7:4"
	g, err := gen.ByName(spec, gen.PresetParams{BuildInEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{Engine: core.Config{Threads: 1}})
	if err := svc.AddGraph(spec, g, "generated"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	rankSum := regexp.MustCompile(`rank sum (\S+)`)
	for _, name := range service.Programs() {
		app, ok := algorithms.LookupApp(name)
		if !ok {
			t.Fatalf("ipregeld serves %q, which the app table lacks", name)
		}
		args := []string{"-app", name, "-graph", spec, "-threads", "1"}
		req := service.JobRequest{Graph: spec, Program: name, NoCache: true}
		if app.Uses&algorithms.UsesSource != 0 {
			src := uint64(2)
			args, req.Params.Source = append(args, "-source", "2"), &src
		}
		out := runOK(t, args...)
		v, err := svc.Submit(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v.State == service.StateQueued || v.State == service.StateRunning {
			time.Sleep(time.Millisecond)
			v, _ = svc.Job(v.ID)
		}
		res := v.Result
		if v.State != service.StateDone {
			t.Fatalf("%s: ipregeld job %s (%s)", name, v.State, v.Error)
		}
		if want := fmt.Sprintf(" supersteps=%-6d ", res.Supersteps); !strings.Contains(out, want) {
			t.Errorf("%s: ipregeld ran %d supersteps, the CLI printed:\n%s", name, res.Supersteps, out)
		}
		switch app.Answer {
		case algorithms.Reach:
			if want := fmt.Sprintf("reached: %d of %d vertices", res.Reached, res.VertexCount); !strings.Contains(out, want) {
				t.Errorf("%s: ipregeld answers %q, the CLI printed:\n%s", name, want, out)
			}
		case algorithms.Labels:
			if want := fmt.Sprintf("components: %d\n", res.Components); !strings.Contains(out, want) {
				t.Errorf("%s: ipregeld answers %q, the CLI printed:\n%s", name, want, out)
			}
		case algorithms.Ranks:
			m := rankSum.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("%s: no rank sum in the CLI's output:\n%s", name, out)
			}
			if got, err := strconv.ParseFloat(m[1], 64); err != nil || math.Abs(got-res.RankSum) > 1e-9 {
				t.Errorf("%s: ipregeld's rank sum is %v, the CLI printed %s", name, res.RankSum, m[1])
			}
		}
	}
}
