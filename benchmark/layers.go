package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
	"ipregel/internal/telemetry"
)

// telemetrySinks are what `ipregel-run -telemetry -trace` attaches: a
// Collector and a JSONL TraceWriter. telemetry.overhead_ratio is a run with
// both over a run with neither.
type telemetrySinks struct{ collector *telemetry.Collector }

func newTelemetrySinks() *telemetrySinks {
	return &telemetrySinks{collector: telemetry.NewCollector()}
}

func (t *telemetrySinks) observers() []core.Observer {
	return []core.Observer{t.collector, telemetry.NewTraceWriter(io.Discard)}
}

// writeMetricsMicros is the median time of rendering /metrics.
func writeMetricsMicros(c *telemetry.Collector) float64 {
	var us []float64
	for i := 0; i < 21; i++ {
		t := time.Now()
		_ = c.WriteMetrics(io.Discard) // io.Discard cannot fail
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(us)
}

// withGraph hands fn the workload's graph, mapping the file for the call
// when the workload keeps none resident.
func withGraph[V, M any](in *engineInput[V, M], fn func(g *graph.Graph) error) error {
	if in.file == "" {
		return fn(in.g)
	}
	m, err := graphio.OpenMapped(in.file, graphio.Options{BuildInEdges: true})
	if err != nil {
		return err
	}
	defer m.Close()
	return fn(m.Graph())
}

// scanRate sweeps every vertex's neighbour list once on one thread, three
// times, and returns the median rate in million edges per second.
func scanRate(g *graph.Graph, neighbors func(nb *graph.NeighborBuf, i int) []graph.VertexID) float64 {
	var rates []float64
	var nb graph.NeighborBuf
	for rep := 0; rep < 3; rep++ {
		var sum uint64
		t := time.Now()
		for i := 0; i < g.N(); i++ {
			for _, v := range neighbors(&nb, i) {
				sum += uint64(v)
			}
		}
		d := time.Since(t).Seconds()
		scanSink.Add(sum)
		rates = append(rates, float64(g.M())/d/1e6)
	}
	return median(rates)
}

// scanSink keeps the compiler from dropping the sweep.
var scanSink atomic.Uint64

// engineLayers turns the traced pass's operations and a few extra probes
// into the per-layer metrics of an engine workload.
func engineLayers[V, M any](e *engineRun[V, M], warm opResult[V], byMode map[string][]opResult[V], runS float64, tel *telemetrySinks) error {
	r, in := e.r, e.in

	pick := func(ops []opResult[V], f func(opResult[V]) time.Duration) []float64 {
		out := make([]float64, len(ops))
		for i, o := range ops {
			out[i] = f(o).Seconds()
		}
		return out
	}
	runOf := func(o opResult[V]) time.Duration { return o.run }
	plain, traced := byMode["plain"], byMode["traced"]

	rep := warm.report
	var ran int64
	pull := 0
	for _, s := range rep.Steps {
		ran += s.Ran
		if s.Direction == core.DirectionPull {
			pull++
		}
	}
	vertices := float64(len(in.ref))
	r.set("core.new_s", median(pick(traced, func(o opResult[V]) time.Duration { return o.build })))
	r.set("core.values_dense_s", median(pick(traced, func(o opResult[V]) time.Duration { return o.dense })))
	r.set("core.supersteps", float64(rep.Supersteps))
	r.set("core.messages", float64(rep.TotalMessages))
	r.set("core.vertices_run", float64(ran))
	r.set("core.pull_steps", float64(pull))
	r.set("core.ns_per_message", runS*1e9/float64(rep.TotalMessages))
	r.set("core.footprint_bytes_per_vertex", float64(warm.footprint)/vertices)
	r.set("graph.memory_bytes_per_edge", float64(warm.graphMem)/float64(warm.edges))
	if in.file != "" {
		r.set("graphio.open_mapped_s", median(pick(traced, func(o opResult[V]) time.Duration { return o.open })))
	}

	// Superstep spans: pooled for the percentiles, per Run span for the
	// shares.
	steps := r.tr.durations("superstep")
	for i := range steps {
		steps[i] *= 1e6
	}
	r.set("core.superstep_p50_us", median(steps))
	r.set("core.superstep_p99_us", percentileOrZero(steps, 99))
	var maxShare, selfShare []float64
	stepTotal, stepMax := r.tr.childTotals(), map[int]float64{} // a Run span's only children are its supersteps
	for _, s := range r.tr.spans {
		if s.Name == "superstep" {
			stepMax[s.Parent] = max(stepMax[s.Parent], float64(s.End-s.Start)/1e9)
		}
	}
	for _, s := range r.tr.spans {
		if s.Name == "core.Engine.Run" {
			d := float64(s.End-s.Start) / 1e9
			maxShare = append(maxShare, stepMax[s.ID]/d)
			selfShare = append(selfShare, (d-stepTotal[s.ID])/d)
		}
	}
	r.set("core.max_step_share", median(maxShare))
	r.set("core.run_self_share", median(selfShare))

	r.set("bench.reps", float64(len(plain)))
	r.set("bench.run_spread", spread(pick(plain, runOf)))
	r.set("bench.trace_overhead_ratio", quiet(pick(traced, runOf))/runS)
	r.set("telemetry.overhead_ratio", quiet(pick(byMode["telemetry"], runOf))/runS)
	r.set("telemetry.write_metrics_us", writeMetricsMicros(tel.collector))

	// What the vertex-centric model costs over the plain sequential loop,
	// both on one thread.
	r.set("algorithms.overhead_vs_ref_1t", runS/in.refTime.Seconds())

	// The same operation on every processor: the parallel speed-up and how
	// evenly the workers were loaded. On a guest whose processors share a
	// host core this moves with the host's load; it is here to be read, not
	// gated.
	parallel := byMode["parallel"]
	imbalance := make([]float64, len(parallel))
	for i, o := range parallel {
		imbalance[i] = o.report.LoadImbalance()
	}
	r.set("core.speedup_vs_1t", runS/quiet(pick(parallel, runOf)))
	r.set("core.worker_imbalance", median(imbalance))

	err := withGraph(in, func(g *graph.Graph) error {
		out := scanRate(g, g.OutNeighborsWith)
		if g.IsCompressed() {
			r.set("graph.scan_compressed_medges_per_s", out)
		} else {
			r.set("graph.scan_flat_medges_per_s", out)
		}
		if g.HasInEdges() && !g.IsCompressed() { // a compressed graph's in-edges are compressed too
			r.set("graph.in_scan_flat_medges_per_s", scanRate(g, g.InNeighborsWith))
		}
		return checkpointProbe(e, g, rep.Supersteps)
	})
	if err != nil {
		return err
	}
	if in.probes != nil {
		return in.probes(r)
	}
	return nil
}

// timedCheckpoint wraps the FileSink's writer: the span runs from the
// engine's Sink call to the end of Commit (fsync and rename included).
type timedCheckpoint struct {
	w     io.Writer
	start time.Time
	bytes int64
	done  func(c *timedCheckpoint, end time.Time)
}

func (c *timedCheckpoint) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.bytes += int64(n)
	return n, err
}

func (c *timedCheckpoint) Commit() error {
	err := c.w.(core.CheckpointCommitter).Commit()
	c.done(c, time.Now())
	return err
}

func (c *timedCheckpoint) Abort() error { return c.w.(core.CheckpointCommitter).Abort() }

// checkpointProbe runs the program once with checkpoints through a
// FileSink at half the run's length, then restores the newest checkpoint
// and finishes the run from it; both results must match the reference.
func checkpointProbe[V, M any](e *engineRun[V, M], g *graph.Graph, supersteps int) error {
	r, spec, in, cfg := e.r, e.spec, e.in, e.cfg
	sink, err := core.NewFileSink(filepath.Join(r.tmp, "checkpoints"), 0)
	if err != nil {
		return err
	}
	defer sink.Close()
	var writes []float64
	var size int64
	cp := core.Checkpointer[V, M]{
		Every:  max(1, supersteps/2),
		VCodec: spec.vcodec,
		MCodec: spec.mcodec,
		Sink: func(superstep int) (io.Writer, error) {
			start := time.Now()
			w, err := sink.Sink(superstep)
			if err != nil {
				return nil, err
			}
			return &timedCheckpoint{w: w, start: start, done: func(c *timedCheckpoint, end time.Time) {
				r.tr.add("core.FileSink.checkpoint", "checkpoint", 0, c.start, end, map[string]any{"superstep": superstep, "bytes": c.bytes})
				writes = append(writes, end.Sub(c.start).Seconds())
				size = c.bytes
			}}, nil
		},
	}

	eng, err := core.New(g, cfg, in.prog)
	if err != nil {
		return err
	}
	if err := eng.SetCheckpointer(cp); err != nil {
		return err
	}
	if _, err := eng.Run(); err != nil {
		return err
	}
	e.sameValues("checkpointed run", eng.ValuesDense())
	if len(writes) == 0 {
		return fmt.Errorf("no checkpoint was written in %d supersteps", supersteps)
	}
	r.set("core.checkpoint_write_s", median(writes))
	r.set("core.checkpoint_bytes", float64(size))

	file, _, found, err := sink.LatestGood()
	if err != nil || !found {
		return fmt.Errorf("no good checkpoint to restore (found=%v): %v", found, err)
	}
	defer file.Close()
	t := time.Now()
	restored, err := core.Restore(file, g, cfg, in.prog, spec.vcodec, spec.mcodec)
	if err != nil {
		return err
	}
	end := time.Now()
	r.tr.add("core.Restore", "checkpoint", 0, t, end, nil)
	r.set("core.restore_s", end.Sub(t).Seconds())
	if _, err := restored.Run(); err != nil {
		return err
	}
	e.sameValues("restored run", restored.ValuesDense())
	return nil
}

// readRate times graphio.ReadFile on path three times and returns the
// median rate in MB of file per second.
func readRate(r *run, path string) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		g, err := graphio.ReadFile(path, graphio.Options{})
		if err != nil {
			return 0, err
		}
		end := time.Now()
		r.tr.add("graphio.ReadFile", filepath.Base(path), 0, t, end, map[string]any{"vertices": g.N(), "bytes": st.Size()})
		secs = append(secs, end.Sub(t).Seconds())
	}
	return float64(st.Size()) / 1e6 / median(secs), nil
}
