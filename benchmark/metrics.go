package main

// metricDef mirrors one entry of BENCHMARK.json; smoke_test.go holds the
// two equal. Bound is the share of the parent's median by which an
// end-to-end metric may worsen (unused for per-layer metrics).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"medges_per_s", "Mmsg/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.12},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
}

// perLayer lists the traced pass's metrics, prefixed by the package (layer)
// they describe. A workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{Name: "graphio.open_mapped_s", Unit: "s", Better: "lower"},
	{Name: "graphio.file_bytes", Unit: "B", Better: "lower"},
	{Name: "graphio.read_ipg3_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "graphio.read_binary_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "graphio.read_edgelist_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "graph.scan_flat_medges_per_s", Unit: "Medges/s", Better: "higher"},
	{Name: "graph.scan_compressed_medges_per_s", Unit: "Medges/s", Better: "higher"},
	{Name: "graph.in_scan_flat_medges_per_s", Unit: "Medges/s", Better: "higher"},
	{Name: "graph.compress_s", Unit: "s", Better: "lower"},
	{Name: "graph.with_in_edges_s", Unit: "s", Better: "lower"},
	{Name: "graph.symmetrize_s", Unit: "s", Better: "lower"},
	{Name: "graph.memory_bytes_per_edge", Unit: "B/edge", Better: "lower"},

	{Name: "core.new_s", Unit: "s", Better: "lower"},
	{Name: "core.values_dense_s", Unit: "s", Better: "lower"},
	{Name: "core.supersteps", Unit: "count", Better: "lower"},
	{Name: "core.messages", Unit: "count", Better: "lower"},
	{Name: "core.vertices_run", Unit: "count", Better: "lower"},
	{Name: "core.pull_steps", Unit: "count", Better: "lower"},
	{Name: "core.superstep_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.superstep_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.ns_per_message", Unit: "ns", Better: "lower"},
	{Name: "core.max_step_share", Unit: "ratio", Better: "lower"},
	{Name: "core.run_self_share", Unit: "ratio", Better: "lower"},
	{Name: "core.worker_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "core.speedup_vs_1t", Unit: "ratio", Better: "higher"},
	{Name: "core.footprint_bytes_per_vertex", Unit: "B/vertex", Better: "lower"},
	{Name: "core.checkpoint_write_s", Unit: "s", Better: "lower"},
	{Name: "core.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "core.restore_s", Unit: "s", Better: "lower"},

	{Name: "algorithms.overhead_vs_ref_1t", Unit: "ratio", Better: "lower"},

	{Name: "service.jobs_sent", Unit: "count", Better: "higher"},
	{Name: "service.jobs_done", Unit: "count", Better: "higher"},
	{Name: "service.rejected_429", Unit: "count", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.submit_rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.run_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.run_p50_ms.sssp", Unit: "ms", Better: "lower"},
	{Name: "service.run_p50_ms.bfs", Unit: "ms", Better: "lower"},
	{Name: "service.run_p50_ms.wcc", Unit: "ms", Better: "lower"},
	{Name: "service.run_p50_ms.pagerank", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cached_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.window_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.max_outstanding", Unit: "count", Better: "lower"},
	{Name: "service.gen_lag_p95_ms", Unit: "ms", Better: "lower"},

	{Name: "telemetry.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.write_metrics_us", Unit: "us", Better: "lower"},

	{Name: "bench.reps", Unit: "count", Better: "higher"},
	{Name: "bench.run_spread", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}
