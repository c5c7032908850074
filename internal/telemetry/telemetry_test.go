package telemetry

import (
	"context"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"

	"ipregel/internal/chaos"
	"ipregel/internal/core"
	"ipregel/internal/graph"
)

func ring(n int) *graph.Graph {
	var b graph.Builder
	b.BuildInEdges()
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
	}
	return b.MustBuild()
}

// flood broadcasts for `steps` supersteps then halts — converges in
// steps+2 supersteps with one message per vertex per sending superstep.
func flood(steps int) core.Program[uint32, uint32] {
	return core.Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			var m uint32
			for ctx.NextMessage(v, &m) {
				*v.Value() += m
			}
			if ctx.Superstep() < steps {
				ctx.Broadcast(v, 1)
			} else {
				ctx.VoteToHalt(v)
			}
		},
	}
}

func neverHalt() core.Program[uint32, uint32] {
	return core.Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			ctx.Broadcast(v, 1)
		},
	}
}

func TestCollectorTracksRun(t *testing.T) {
	c := NewCollector()
	cfg := core.Config{Threads: 2, TrackWorkerTime: true, Observers: []core.Observer{c}}
	_, rep, err := core.Run(ring(16), cfg, flood(4))
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if got := snap["ipregel_runs_total"]; got != 1 {
		t.Fatalf("runs_total = %d, want 1", got)
	}
	if got := snap["ipregel_runs_converged_total"]; got != 1 {
		t.Fatalf("runs_converged_total = %d, want 1", got)
	}
	if got := snap["ipregel_runs_aborted_total"]; got != 0 {
		t.Fatalf("runs_aborted_total = %d, want 0", got)
	}
	if got := snap["ipregel_supersteps_total"]; got != int64(rep.Supersteps) {
		t.Fatalf("supersteps_total = %d, report says %d", got, rep.Supersteps)
	}
	if got := snap["ipregel_messages_total"]; got != int64(rep.TotalMessages) {
		t.Fatalf("messages_total = %d, report says %d", got, rep.TotalMessages)
	}
	var ran int64
	for _, s := range rep.Steps {
		ran += s.Ran
	}
	if got := snap["ipregel_vertices_ran_total"]; got != ran {
		t.Fatalf("vertices_ran_total = %d, steps sum to %d", got, ran)
	}
	if got := snap["ipregel_current_superstep"]; got != int64(rep.Supersteps-1) {
		t.Fatalf("current_superstep = %d, want last executed %d", got, rep.Supersteps-1)
	}
	if snap["ipregel_runs_active"] != 0 {
		t.Fatal("runs_active stuck after run end")
	}
	if snap["ipregel_heap_objects_bytes"] <= 0 {
		t.Fatal("heap sample missing")
	}
	if snap["ipregel_last_imbalance_millis"] < 1000 {
		t.Fatalf("imbalance gauge = %d, want >= 1000 (max/mean >= 1)", snap["ipregel_last_imbalance_millis"])
	}

	// A second, aborted run accumulates into the same collector.
	_, rep2, err := core.Run(ring(16), core.Config{MaxSupersteps: 3, Observers: []core.Observer{c}}, neverHalt())
	if err == nil {
		t.Fatal("expected abort")
	}
	snap = c.Snapshot()
	if snap["ipregel_runs_total"] != 2 || snap["ipregel_runs_aborted_total"] != 1 || snap["ipregel_runs_converged_total"] != 1 {
		t.Fatalf("after aborted run: %+v", snap)
	}
	if got := snap["ipregel_messages_total"]; got != int64(rep.TotalMessages+rep2.TotalMessages) {
		t.Fatalf("messages_total = %d, want %d", got, rep.TotalMessages+rep2.TotalMessages)
	}
}

// TestMetricNames pins the /metrics and expvar name set: the global
// snapshot and a job scope's publish the same engine series (the job
// scope has no process-level ones), and the series of the removed shard
// layer, sender cache, hub splitting and CAS inbox are gone from both.
func TestMetricNames(t *testing.T) {
	engine := []string{
		"ipregel_current_superstep",
		"ipregel_direction_switches_total",
		"ipregel_last_active_vertices",
		"ipregel_last_frontier_size",
		"ipregel_last_imbalance_millis",
		"ipregel_last_ran_vertices",
		"ipregel_last_superstep_nanos",
		"ipregel_messages_total",
		"ipregel_recoveries_total",
		"ipregel_runs_aborted_total",
		"ipregel_runs_active",
		"ipregel_runs_converged_total",
		"ipregel_runs_total",
		"ipregel_supersteps_total",
		"ipregel_vertices_ran_total",
	}
	process := []string{"ipregel_gc_cycles_total", "ipregel_heap_objects_bytes", "ipregel_snapshot_unix_nanos"}
	c := NewCollector()
	j, err := c.Job("names")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	for what, tc := range map[string]struct {
		got  map[string]int64
		want []string
	}{
		"collector": {c.Snapshot(), append(append([]string(nil), engine...), process...)},
		"job scope": {j.Snapshot(), engine},
	} {
		for _, name := range tc.want {
			if _, ok := tc.got[name]; !ok {
				t.Errorf("%s: %s missing", what, name)
			}
		}
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s publishes %d series, want exactly %d: %v", what, len(tc.got), len(tc.want), tc.got)
		}
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	c := NewCollector()
	if _, _, err := core.Run(ring(8), core.Config{Observers: []core.Observer{c}}, flood(2)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := c.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(c.Snapshot()) {
		t.Fatalf("%d metric lines, want %d", len(lines), len(c.Snapshot()))
	}
	prev := ""
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "ipregel_") {
			t.Fatalf("malformed metric line %q", ln)
		}
		if fields[0] <= prev {
			t.Fatalf("metrics not sorted: %q after %q", fields[0], prev)
		}
		prev = fields[0]
	}
	if !strings.Contains(out, "ipregel_runs_total 1\n") {
		t.Fatalf("runs_total missing:\n%s", out)
	}
}

// TestCollectorDirectionCounters feeds the collector supersteps with
// direction switches and checks the dedicated counter accumulates them.
func TestCollectorDirectionCounters(t *testing.T) {
	c := NewCollector()
	c.OnSuperstepStart(0)
	c.OnSuperstepEnd(0, core.StepStats{Ran: 4, Direction: core.DirectionPull})
	c.OnSuperstepStart(1)
	c.OnSuperstepEnd(1, core.StepStats{Ran: 4, Direction: core.DirectionPush, DirectionSwitched: true})
	c.OnSuperstepStart(2)
	c.OnSuperstepEnd(2, core.StepStats{Ran: 4, Direction: core.DirectionPull, DirectionSwitched: true})
	snap := c.Snapshot()
	if got := snap["ipregel_direction_switches_total"]; got != 2 {
		t.Fatalf("ipregel_direction_switches_total = %d, want 2", got)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	// The counter set must stay race-free when several engines feed one
	// collector while scrapers snapshot it (run under -race in CI).
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := core.Run(ring(32), core.Config{Threads: 2, Observers: []core.Observer{c}}, flood(5)); err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = c.WriteMetrics(discardWriter{})
		}
	}()
	wg.Wait()
	<-done
	if got := c.Snapshot()["ipregel_runs_total"]; got != 4 {
		t.Fatalf("runs_total = %d, want 4", got)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestPublishExpvar(t *testing.T) {
	a := NewCollector()
	a.Publish()
	v := expvar.Get("ipregel")
	if v == nil {
		t.Fatal("expvar key not published")
	}
	if _, _, err := core.Run(ring(8), core.Config{Observers: []core.Observer{a}}, flood(2)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.String(), `"ipregel_runs_total":1`) {
		t.Fatalf("expvar snapshot missing run: %s", v.String())
	}
	// Publishing a second collector must not panic (expvar is append-only)
	// and re-points the key at the newest collector.
	b := NewCollector()
	b.Publish()
	if strings.Contains(expvar.Get("ipregel").String(), `"ipregel_runs_total":1`) {
		t.Fatal("expvar key still backed by the old collector")
	}
}

func TestSnapshotTimestampAdvances(t *testing.T) {
	c := NewCollector()
	t0 := c.Snapshot()["ipregel_snapshot_unix_nanos"]
	time.Sleep(time.Millisecond)
	if t1 := c.Snapshot()["ipregel_snapshot_unix_nanos"]; t1 <= t0 {
		t.Fatalf("snapshot timestamp did not advance: %d -> %d", t0, t1)
	}
}

// TestCollectorCountsRecoveries wires the collector into a recovery
// supervisor run whose program fails once: the recoveries counter must
// reflect the checkpoint-based resume, and the attempt's abort must be
// visible alongside the eventual converged run.
func TestCollectorCountsRecoveries(t *testing.T) {
	c := NewCollector()
	g := ring(16)
	cfg := core.Config{Threads: 2, Observers: []core.Observer{c}}
	sink, err := core.NewFileSink(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	attempt := 0
	prog := flood(4)
	compute := prog.Compute
	prog.Compute = func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
		if attempt == 1 && ctx.Superstep() == 3 {
			panic("telemetry recovery test: injected failure")
		}
		compute(ctx, v)
	}
	_, rep, err := core.RunWithRecovery(context.Background(), g, cfg, prog,
		core.Checkpointer[uint32, uint32]{Every: 1, Sink: sink.Sink, VCodec: u32c{}, MCodec: u32c{}},
		sink,
		core.RecoveryOptions{
			MaxAttempts: 3,
			Sleep:       func(time.Duration) {},
			AttemptContext: func(parent context.Context, n int) (context.Context, context.CancelFunc) {
				attempt = n
				return parent, func() {}
			},
			OnRetry: func(int, error) { c.RecordRecovery() },
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recoveries != 1 {
		t.Fatalf("report recoveries = %d, want 1", rep.Recoveries)
	}
	snap := c.Snapshot()
	if got := snap["ipregel_recoveries_total"]; got != 1 {
		t.Fatalf("ipregel_recoveries_total = %d, want 1", got)
	}
	if got := snap["ipregel_runs_aborted_total"]; got != 1 {
		t.Fatalf("ipregel_runs_aborted_total = %d, want 1 (the failed attempt)", got)
	}
	if got := snap["ipregel_runs_converged_total"]; got != 1 {
		t.Fatalf("ipregel_runs_converged_total = %d, want 1", got)
	}
}

// u32c is a minimal uint32 codec for the recovery test's checkpoints.
type u32c struct{}

func (u32c) Size() int { return 4 }
func (u32c) Encode(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func (u32c) Decode(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestEngineSeriesMatchReports folds a converged run that switches
// direction, a MaxSupersteps abort and a recovered run (its failed
// attempt included) into one job scope on one collector: every engine
// series of both snapshots must equal what the runs' Reports say.
func TestEngineSeriesMatchReports(t *testing.T) {
	c := NewCollector()
	j, err := c.Job("series")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	var reports []core.Report
	cfg := core.Config{Threads: 2, TrackWorkerTime: true,
		Observers: []core.Observer{j, core.ObserverFuncs{RunEnd: func(r core.Report, _ error) { reports = append(reports, r) }}}}

	// A star's hub floods its leaves, then one leaf walks a chain: the
	// adaptive direction pulls the full first frontier and pushes the rest.
	var b graph.Builder
	b.BuildInEdges()
	for i := 1; i <= 40; i++ {
		b.AddEdge(0, graph.VertexID(i))
	}
	for i := 40; i < 60; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	adaptive := cfg
	adaptive.SelectionBypass, adaptive.Direction = true, core.DirectionAdaptive
	if _, _, err := core.Run(b.MustBuild(), adaptive, hops(0)); err != nil {
		t.Fatal(err)
	}
	limited := cfg
	limited.MaxSupersteps = 3
	if _, _, err := core.Run(ring(16), limited, neverHalt()); err == nil {
		t.Fatal("expected abort")
	}
	sink, err := core.NewFileSink(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(7, chaos.Event{Fault: chaos.ComputePanic, Superstep: 3})
	recovering := cfg
	recovering.Observers = append([]core.Observer{inj.Observer()}, cfg.Observers...)
	_, last, err := core.RunWithRecovery(context.Background(), ring(16), recovering, chaos.WrapProgram(inj, flood(4)),
		core.Checkpointer[uint32, uint32]{Every: 2, Sink: sink.Sink, VCodec: u32c{}, MCodec: u32c{}}, sink,
		core.RecoveryOptions{Sleep: func(time.Duration) {}, OnRetry: func(int, error) { j.RecordRecovery() }})
	if err != nil || last.Recoveries != 1 {
		t.Fatalf("recovered run: recoveries=%d err=%v", last.Recoveries, err)
	}
	if len(reports) != 4 {
		t.Fatalf("%d runs ended, want 4", len(reports))
	}

	want := map[string]int64{"ipregel_recoveries_total": int64(last.Recoveries)}
	for _, r := range reports {
		want["ipregel_runs_total"]++
		if r.Converged {
			want["ipregel_runs_converged_total"]++
		} else {
			want["ipregel_runs_aborted_total"]++
		}
		want["ipregel_supersteps_total"] += int64(r.Supersteps - r.FirstSuperstep)
		want["ipregel_messages_total"] += int64(r.TotalMessages)
		for _, s := range r.Steps {
			want["ipregel_vertices_ran_total"] += s.Ran
			if s.DirectionSwitched {
				want["ipregel_direction_switches_total"]++
			}
		}
	}
	if want["ipregel_direction_switches_total"] == 0 {
		t.Fatal("no run switched direction; the switch counter goes untested")
	}
	r := reports[len(reports)-1]
	s := r.Steps[len(r.Steps)-1]
	want["ipregel_current_superstep"] = int64(r.FirstSuperstep + len(r.Steps) - 1)
	want["ipregel_last_active_vertices"] = s.Active
	want["ipregel_last_ran_vertices"] = s.Ran
	want["ipregel_last_frontier_size"] = s.NextFrontier
	want["ipregel_last_superstep_nanos"] = int64(s.Duration)
	want["ipregel_last_imbalance_millis"] = int64(s.Imbalance() * 1000)

	jsnap := j.Snapshot()
	for name := range want {
		if _, ok := jsnap[name]; !ok {
			t.Errorf("job scope publishes no %s", name)
		}
	}
	for what, snap := range map[string]map[string]int64{"job scope": jsnap, "collector": c.Snapshot()} {
		for name := range jsnap {
			if snap[name] != want[name] {
				t.Errorf("%s: %s = %d, the reports say %d", what, name, snap[name], want[name])
			}
		}
	}
}
