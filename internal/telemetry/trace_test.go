package telemetry

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"ipregel/internal/chaos"
	"ipregel/internal/core"
	"ipregel/internal/graph"
)

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	cfg := core.Config{Threads: 2, TrackWorkerTime: true, Observers: []core.Observer{tw}}
	_, rep, err := core.Run(ring(16), cfg, flood(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Type != EventRunStart {
		t.Fatalf("first event %q, want run_start", events[0].Type)
	}
	if last := events[len(events)-1]; last.Type != EventRunEnd {
		t.Fatalf("last event %q, want run_end", last.Type)
	}
	steps := 0
	for _, ev := range events {
		if ev.Type == EventSuperstep {
			steps++
		}
		if ev.Type == EventAbort {
			t.Fatal("converged run emitted an abort event")
		}
	}
	if steps != len(rep.Steps) {
		t.Fatalf("trace has %d superstep events, report has %d steps", steps, len(rep.Steps))
	}

	replay, err := ReplayReport(events)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed report reproduces the live run's renderings exactly.
	if replay.String() != rep.String() {
		t.Fatalf("replayed summary differs:\n got %q\nwant %q", replay.String(), rep.String())
	}
	if replay.Table() != rep.Table() {
		t.Fatalf("replayed table differs:\n got:\n%s\nwant:\n%s", replay.Table(), rep.Table())
	}
	if replay.LoadImbalance() != rep.LoadImbalance() {
		t.Fatalf("replayed imbalance %v, want %v", replay.LoadImbalance(), rep.LoadImbalance())
	}
}

// TestTraceLegacySchedulerFieldsReplay pins trace compatibility across
// the removal of overlapped delivery, work stealing, the shard layer and
// the CAS inbox: a trace written while superstep events still carried
// early_delivered_batches, stolen_tasks, the per-shard breakdown and the
// CAS retry count validates and replays, with those fields ignored.
func TestTraceLegacySchedulerFieldsReplay(t *testing.T) {
	const legacy = `{"schema":"ipregel-trace/1","type":"run_start"}
{"schema":"ipregel-trace/1","type":"superstep","ran":8,"messages":10,"active":8,"duration_ns":1200,"shard_messages":[6,4],"cross_shard_messages":4,"early_delivered_batches":2,"stolen_tasks":3,"skipped_shards":1,"cas_retries":3}
{"schema":"ipregel-trace/1","type":"run_end","version":"spinlock+shards2+overlap+steal","supersteps":1,"total_messages":10,"total_duration_ns":1500,"converged":true}
`
	events, err := ReadTrace(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := ReplayReport(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Steps) != 1 || !replay.Converged || replay.TotalMessages != 10 {
		t.Fatalf("legacy trace replayed as %+v", replay)
	}
	if got := replay.Steps[0]; got.Ran != 8 || got.Messages != 10 || got.Active != 8 {
		t.Fatalf("replayed step %+v, want ran 8, messages 10, active 8", got)
	}
}

// TestTraceDirectionFieldsRoundTrip checks the per-step direction
// fields survive encode → ReadTrace → replay: a pull superstep and a
// switch back to push. Push is the omitted
// default on the wire, so a pre-direction trace replays as all-push.
func TestTraceDirectionFieldsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	steps := []core.StepStats{
		{Ran: 8, Messages: 10, Active: 8, Direction: core.DirectionPull},
		{Ran: 8, Messages: 6, Active: 8, Direction: core.DirectionPush, DirectionSwitched: true},
		{Ran: 6, Messages: 0, Active: 0, Direction: core.DirectionPush},
	}
	for i, s := range steps {
		tw.OnSuperstepStart(i)
		tw.OnSuperstepEnd(i, s)
	}
	tw.OnRunEnd(core.Report{Supersteps: 3, TotalMessages: 16, Converged: true}, nil)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	raw := buf.String()
	if !strings.Contains(raw, `"direction":"pull"`) {
		t.Fatalf("trace does not record the pull superstep's direction:\n%s", raw)
	}
	if !strings.Contains(raw, `"direction_switched":true`) {
		t.Fatalf("trace does not record the direction switch:\n%s", raw)
	}
	if strings.Contains(raw, `"direction":"push"`) {
		t.Fatalf("push should be the omitted default on the wire:\n%s", raw)
	}

	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := ReplayReport(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Steps) != len(steps) {
		t.Fatalf("replayed %d steps, want %d", len(replay.Steps), len(steps))
	}
	for i, got := range replay.Steps {
		want := steps[i]
		if got.Direction != want.Direction || got.DirectionSwitched != want.DirectionSwitched {
			t.Fatalf("step %d: replayed direction %v/%v, want %v/%v", i,
				got.Direction, got.DirectionSwitched, want.Direction, want.DirectionSwitched)
		}
	}
}

// TestTraceSlotOrderRoundTrip runs a bypass program whose first frontier
// (a star's 40 leaves out of 141 vertices) reaches the slot-order cut and
// whose later ones (one vertex down a chain) do not: slot_order is on the
// wire for exactly the marked supersteps, and the replay reproduces the
// marks and the table that shows them.
func TestTraceSlotOrderRoundTrip(t *testing.T) {
	var b graph.Builder
	for i := 1; i <= 40; i++ {
		b.AddEdge(0, graph.VertexID(i))
	}
	for i := 40; i < 140; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	_, rep, err := core.Run(b.MustBuild(), core.Config{Threads: 1, SelectionBypass: true, Observers: []core.Observer{tw}}, hops(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, s := range rep.Steps {
		if s.SlotOrder {
			marked++
		}
	}
	if marked == 0 || marked == len(rep.Steps)-1 {
		t.Fatalf("%d of %d supersteps ran in slot order; the trace must carry both kinds:\n%s", marked, len(rep.Steps), rep.Table())
	}
	if got := strings.Count(buf.String(), `"slot_order":true`); got != marked {
		t.Fatalf("trace marks %d supersteps slot_order, the run %d", got, marked)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := ReplayReport(events)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range replay.Steps {
		if s.SlotOrder != rep.Steps[i].SlotOrder {
			t.Fatalf("step %d: replayed SlotOrder %v, want %v", i, s.SlotOrder, rep.Steps[i].SlotOrder)
		}
	}
	if replay.Table() != rep.Table() || !strings.Contains(rep.Table(), "(slot order)") {
		t.Fatalf("replayed table differs or shows no slot-order mark:\n got:\n%s\nwant:\n%s", replay.Table(), rep.Table())
	}
}

// hops is breadth-first hop counting from src under selection bypass:
// every vertex votes to halt every superstep.
func hops(src graph.VertexID) core.Program[uint32, uint32] {
	return core.Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old = min(*old, new) },
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			best := ^uint32(0)
			if ctx.IsFirstSuperstep() {
				*v.Value() = best
				if v.ID() == src {
					best = 0
				}
			}
			var m uint32
			for ctx.NextMessage(v, &m) {
				best = min(best, m)
			}
			if best < *v.Value() {
				*v.Value() = best
				ctx.Broadcast(v, best+1)
			}
			ctx.VoteToHalt(v)
		},
	}
}

func TestTraceAbortedRun(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	_, rep, err := core.Run(ring(8), core.Config{MaxSupersteps: 3, Observers: []core.Observer{tw}}, neverHalt())
	if err == nil {
		t.Fatal("expected abort")
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	aborts := 0
	for _, ev := range events {
		if ev.Type == EventAbort {
			aborts++
			if !strings.Contains(ev.Reason, "superstep limit") || ev.Superstep != rep.Supersteps {
				t.Fatalf("abort at superstep %d for %q, want superstep %d", ev.Superstep, ev.Reason, rep.Supersteps)
			}
		}
	}
	if aborts != 1 {
		t.Fatalf("%d abort events, want 1", aborts)
	}
	replay, err := ReplayReport(events)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Aborted || replay.AbortReason != rep.AbortReason {
		t.Fatalf("replayed abort state: %+v", replay)
	}
	if replay.Table() != rep.Table() {
		t.Fatalf("replayed aborted table differs:\n%s", replay.Table())
	}
}

func TestTraceResumedNumbering(t *testing.T) {
	// A trace whose run_start is mid-numbering (a resumed run) validates
	// and replays with absolute superstep rows.
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.OnSuperstepStart(5)
	tw.OnSuperstepEnd(5, core.StepStats{Ran: 3, Messages: 2})
	tw.OnSuperstepEnd(6, core.StepStats{Ran: 1})
	tw.OnRunEnd(core.Report{FirstSuperstep: 5, Supersteps: 7, TotalMessages: 2, Converged: true,
		Steps: []core.StepStats{{Ran: 3, Messages: 2}, {Ran: 1}}}, nil)
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := ReplayReport(events)
	if err != nil {
		t.Fatal(err)
	}
	if replay.FirstSuperstep != 5 || replay.Supersteps != 7 {
		t.Fatalf("replay numbering: %+v", replay)
	}
	if !strings.Contains(replay.Table(), "\n        5 ") {
		t.Fatalf("table rows not absolute:\n%s", replay.Table())
	}
}

func TestReadTraceRejects(t *testing.T) {
	ok := `{"schema":"ipregel-trace/1","type":"run_start"}
{"schema":"ipregel-trace/1","type":"superstep","superstep":0,"ran":1}
{"schema":"ipregel-trace/1","type":"run_end","supersteps":1,"converged":true}`
	if _, err := ReadTrace(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	cases := map[string]string{
		"empty":    "",
		"not-json": "pregel",
		"schema":   `{"schema":"ipregel-trace/999","type":"run_start"}`,
		"bad-type": `{"schema":"ipregel-trace/1","type":"wibble"}`,
		"gap":      `{"schema":"ipregel-trace/1","type":"superstep","superstep":0}` + "\n" + `{"schema":"ipregel-trace/1","type":"superstep","superstep":2}`,
		"post-partial": `{"schema":"ipregel-trace/1","type":"superstep","superstep":0,"partial":true}` + "\n" +
			`{"schema":"ipregel-trace/1","type":"superstep","superstep":1}`,
		"restart": `{"schema":"ipregel-trace/1","type":"run_start","first_superstep":4}` + "\n" +
			`{"schema":"ipregel-trace/1","type":"superstep","superstep":0}`,
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: invalid trace accepted", name)
		}
	}
}

func TestReplayDetectsInconsistentTotals(t *testing.T) {
	in := `{"schema":"ipregel-trace/1","type":"superstep","superstep":0,"messages":3}
{"schema":"ipregel-trace/1","type":"run_end","supersteps":1,"total_messages":99}`
	events, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayReport(events); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("inconsistent trace accepted: %v", err)
	}
}

func TestReplayTruncatedTrace(t *testing.T) {
	// A live (still-running) or truncated trace has no run_end; the
	// replay synthesises the summary from the step events.
	in := `{"schema":"ipregel-trace/1","type":"run_start","first_superstep":2}
{"schema":"ipregel-trace/1","type":"superstep","superstep":2,"ran":4,"messages":7,"duration_ns":1000}
{"schema":"ipregel-trace/1","type":"superstep","superstep":3,"ran":2,"messages":1,"duration_ns":500}`
	events, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayReport(events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Supersteps != 4 || rep.FirstSuperstep != 2 || rep.TotalMessages != 8 || rep.Duration != 1500 {
		t.Fatalf("synthesised summary wrong: %+v", rep)
	}
}

func TestTraceWriterStickyError(t *testing.T) {
	tw := NewTraceWriter(failWriter{})
	tw.OnSuperstepStart(0)
	tw.OnSuperstepEnd(0, core.StepStats{})
	tw.OnRunEnd(core.Report{}, nil)
	if err := tw.Flush(); err == nil {
		t.Fatal("write error not reported by Flush")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }

// TestTraceRecoveredRun puts one writer on a recovery supervisor whose
// first attempt dies of an injected compute panic: each attempt opens
// with its own run_start, the stream validates, the abort names the
// first superstep that did not complete, and the replay renders the
// summary and table of the run that finished, recoveries included.
func TestTraceRecoveredRun(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	inj := chaos.New(7, chaos.Event{Fault: chaos.ComputePanic, Superstep: 3})
	sink, err := core.NewFileSink(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Threads: 1, Observers: []core.Observer{inj.Observer(), tw}}
	_, rep, err := core.RunWithRecovery(context.Background(), ring(16), cfg, chaos.WrapProgram(inj, flood(6)),
		core.Checkpointer[uint32, uint32]{Every: 2, Sink: sink.Sink, VCodec: u32c{}, MCodec: u32c{}}, sink,
		core.RecoveryOptions{Sleep: func(time.Duration) {}})
	if err != nil || rep.Recoveries != 1 {
		t.Fatalf("recovered run: recoveries=%d err=%v", rep.Recoveries, err)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	for _, ev := range events {
		switch ev.Type {
		case EventRunStart:
			starts = append(starts, ev.FirstSuperstep)
		case EventAbort:
			if ev.Superstep != 3 {
				t.Fatalf("abort at superstep %d, want 3 (the panicking one)", ev.Superstep)
			}
		}
	}
	if len(starts) != 2 || starts[0] != 0 || starts[1] != rep.FirstSuperstep {
		t.Fatalf("run_start first supersteps %v, want [0 %d]", starts, rep.FirstSuperstep)
	}
	replay, err := ReplayReport(events)
	if err != nil {
		t.Fatal(err)
	}
	if replay.String() != rep.String() || !strings.Contains(replay.String(), "recoveries=1") {
		t.Fatalf("replayed summary differs:\n got %q\nwant %q", replay.String(), rep.String())
	}
	if replay.Table() != rep.Table() {
		t.Fatalf("replayed table differs:\n got:\n%s\nwant:\n%s", replay.Table(), rep.Table())
	}
}
