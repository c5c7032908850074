package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/telemetry"
)

// writeTrace runs a small flood to completion with a TraceWriter sink
// and returns the JSONL path plus the live report for comparison.
func writeTrace(t *testing.T) (string, core.Report) {
	t.Helper()
	var b graph.Builder
	b.BuildInEdges()
	for i := 0; i < 16; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%16))
	}
	g := b.MustBuild()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw := telemetry.NewTraceWriter(f)
	prog := core.Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			if ctx.Superstep() < 3 {
				ctx.Broadcast(v, 1)
			} else {
				ctx.VoteToHalt(v)
			}
		},
	}
	_, rep, err := core.Run(g, core.Config{Observers: []core.Observer{tw}}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, rep
}

func TestReplaySummaryAndTable(t *testing.T) {
	path, rep := writeTrace(t)
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// The replay reproduces the live run's one-line summary and table.
	if !strings.Contains(got, rep.String()) {
		t.Fatalf("summary missing:\n%s\nwant line %q", got, rep.String())
	}
	if !strings.Contains(got, rep.Table()) {
		t.Fatalf("table missing:\n%s\nwant:\n%s", got, rep.Table())
	}
	if !strings.Contains(got, "converged") {
		t.Fatalf("convergence line missing:\n%s", got)
	}
}

func TestValidateOnly(t *testing.T) {
	path, rep := writeTrace(t)
	var out strings.Builder
	if err := run([]string{"-validate", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "valid ipregel-trace/1") {
		t.Fatalf("validation verdict missing:\n%s", got)
	}
	if !strings.Contains(got, "(4 supersteps, 1 run_start, 0 abort, 1 run_end)") {
		t.Fatalf("event counts wrong for %d-step run:\n%s", rep.Supersteps, got)
	}
	if strings.Contains(got, "superstep ") {
		t.Fatalf("-validate printed the table:\n%s", got)
	}
}

// TestShowsSlotOrder: the replayed table marks the supersteps a trace
// records as run in slot order, and only those.
func TestShowsSlotOrder(t *testing.T) {
	const trace = `{"schema":"ipregel-trace/1","type":"run_start"}
{"schema":"ipregel-trace/1","type":"superstep","ran":141,"messages":40,"next_frontier":40,"duration_ns":9000}
{"schema":"ipregel-trace/1","type":"superstep","superstep":1,"ran":40,"messages":1,"next_frontier":1,"duration_ns":4000,"slot_order":true}
{"schema":"ipregel-trace/1","type":"superstep","superstep":2,"ran":1,"duration_ns":1000}
{"schema":"ipregel-trace/1","type":"run_end","version":"mutex+bypass","supersteps":3,"total_messages":41,"total_duration_ns":15000,"converged":true}
`
	path := filepath.Join(t.TempDir(), "slot.jsonl")
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	var marked []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(line, " (slot order)") {
			marked = append(marked, strings.Fields(line)[0])
		}
	}
	if len(marked) != 1 || marked[0] != "1" {
		t.Fatalf("supersteps marked slot order: %v, want [1]\n%s", marked, out.String())
	}
}

func TestRejectsBadInput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

// TestReplaysTraceFromShardedEngine replays a trace that `ipregel-run
// -app sssp -graph rmat:12:8 -combiner atomic -shards 4 -hub-split
// -bypass` wrote at the last commit that had those flags: every
// superstep line carries fields this version no longer knows
// (shard_messages, shard_next_frontier, cross_shard_messages,
// skipped_shards, local_combines, hub_split_tasks), and the file must
// still validate and replay to the run it records.
func TestReplaysTraceFromShardedEngine(t *testing.T) {
	const fixture = "testdata/shards4_hubsplit.jsonl"
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"shard_messages", "cross_shard_messages", "skipped_shards", "local_combines", "hub_split_tasks", "total_local_combines"} {
		if !strings.Contains(string(raw), `"`+field+`"`) {
			t.Fatalf("fixture carries no %s field; it would not test what it is here for", field)
		}
	}
	var out strings.Builder
	if err := run([]string{"-validate", fixture}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(7 supersteps, 1 run_start, 0 abort, 1 run_end)") {
		t.Fatalf("event counts wrong:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{fixture}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"atomic+hubsplit+bypass+shards4", "supersteps=7", "msgs=32109", "converged after 7 supersteps"} {
		if !strings.Contains(got, want) {
			t.Fatalf("replay does not show %q:\n%s", want, got)
		}
	}
}
