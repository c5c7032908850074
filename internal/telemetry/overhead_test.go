package telemetry

import (
	"io"
	"testing"
	"time"

	"ipregel/internal/core"
	"ipregel/internal/graph"
)

// benchGraph is sized so each run executes a few dozen supersteps over
// thousands of vertices — enough compute that per-barrier hook costs are
// measured against realistic superstep work.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	var bld graph.Builder
	bld.BuildInEdges()
	const n = 4096
	for i := 0; i < n; i++ {
		bld.AddEdge(graph.VertexID(i), graph.VertexID((i+1)%n))
		bld.AddEdge(graph.VertexID(i), graph.VertexID((i*7+3)%n))
	}
	return bld.MustBuild()
}

// BenchmarkTelemetryOverhead measures what the sinks cost. The run
// series compare an engine with no sinks (`disabled`: the observer
// fan-out over an empty slice is all a barrier pays) against one with
// each sink, per 20-superstep run; those deltas are smaller than the
// runs' spread. The `barrier` series resolve them: each op is one
// OnSuperstepStart/OnSuperstepEnd pair called directly on one sink, so
// ns/op is that sink's cost per superstep barrier.
//
//	go test ./internal/telemetry/ -run '^$' -bench TelemetryOverhead -count 10 | benchstat
func BenchmarkTelemetryOverhead(b *testing.B) {
	g := benchGraph(b)
	run := func(b *testing.B, obs ...core.Observer) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cfg := core.Config{Threads: 2, Observers: obs}
			if _, _, err := core.Run(g, cfg, flood(20)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b) })
	b.Run("collector", func(b *testing.B) { run(b, NewCollector()) })
	b.Run("trace", func(b *testing.B) { run(b, NewTraceWriter(io.Discard)) })
	b.Run("collector+trace", func(b *testing.B) { run(b, NewCollector(), NewTraceWriter(io.Discard)) })

	barrier := func(b *testing.B, o core.Observer) {
		b.Helper()
		step := core.StepStats{Ran: 4096, Messages: 8192, Active: 4096, Duration: 150 * time.Microsecond,
			WorkerBusy: []time.Duration{140 * time.Microsecond, 120 * time.Microsecond}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.OnSuperstepStart(i)
			o.OnSuperstepEnd(i, step)
		}
	}
	b.Run("barrier/collector", func(b *testing.B) { barrier(b, NewCollector()) })
	b.Run("barrier/job", func(b *testing.B) {
		j, err := NewCollector().Job("bench")
		if err != nil {
			b.Fatal(err)
		}
		barrier(b, j)
	})
	b.Run("barrier/trace", func(b *testing.B) { barrier(b, NewTraceWriter(io.Discard)) })
}
