// Command ipregel-run executes one vertex-centric application on one
// graph with one iPregel engine version, printing runtime, superstep and
// memory statistics — the single-experiment workhorse.
//
// Usage:
//
//	ipregel-run -app pagerank -graph wiki -direction pull
//	ipregel-run -app sssp -graph usa -combiner spinlock -bypass -source 2
//	ipregel-run -app hashmin -graph-file path/to/usa.gr.gz -combiner mutex
//	ipregel-run -app wsssp -graph road:200:200 -combiner spinlock -bypass
//	ipregel-run -app pagerank -graph rmat:16:8 -framework pregelplus -nodes 4
//
// Graphs come either from a file (-graph-file, format by extension:
// .gr DIMACS, .tsv KONECT, .bin binary, .gz variants, else edge list) or
// from a generator spec (-graph, see internal/gen.ByName).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/chaos"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
	"ipregel/internal/memmodel"
	"ipregel/internal/pregelplus"
	"ipregel/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ipregel-run:", err)
		os.Exit(1)
	}
}

// scc drives several runs, not one program, so it is the one app
// outside the app table (internal/algorithms/apps.go).
const scc = "scc"

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ipregel-run", flag.ContinueOnError)
	fs.SetOutput(out)
	tableApps := strings.Join(algorithms.AppNames(nil), " | ")
	var (
		appName   = fs.String("app", "pagerank", "application: "+tableApps+" | "+scc)
		graphSpec = fs.String("graph", "wiki", "generator spec ("+strings.Join(gen.Names(), " | ")+")")
		graphFile = fs.String("graph-file", "", "load a graph file instead of generating")
		backend   = fs.String("graph-backend", "flat", "adjacency storage: flat | compressed (delta+varint blocks) | mmap (map a .bin graph file read-only; requires -graph-file)")
		divisor   = fs.Int("divisor", 0, "scale divisor for preset graphs (default 64)")
		framework = fs.String("framework", "ipregel", "ipregel | pregelplus (see DESIGN.md)")
		combiner  = fs.String("combiner", "spinlock", "iPregel push inbox: mutex | spinlock (the broadcast version is -direction pull)")
		bypass    = fs.Bool("bypass", false, "enable selection bypass (apps that halt every superstep only)")
		threads   = fs.Int("threads", 0, "worker threads (default GOMAXPROCS)")
		direction = fs.String("direction", "push", "iPregel message transport per superstep: push | pull (the paper's broadcast version) | adaptive (density-switched); pull and adaptive need broadcast-only apps")
		rounds    = fs.Int("rounds", algorithms.DefaultRounds, fmt.Sprintf("PageRank iterations, at most %d", algorithms.MaxRounds))
		source    = fs.Uint("source", 2, "source vertex identifier ("+strings.Join(algorithms.AppNames(func(a *algorithms.App) bool { return a.Uses&algorithms.UsesSource != 0 }), " | ")+")")
		nodes     = fs.Int("nodes", 1, "pregelplus: simulated node count")
		verbose   = fs.Bool("v", false, "print per-superstep statistics")
		telAddr   = fs.String("telemetry", "", "serve live /metrics, expvar and /debug/pprof on this address (e.g. :8080) during the run")
		telHold   = fs.Duration("telemetry-hold", 0, "keep the telemetry endpoint up this long after the run (for scrapers)")
		traceOut  = fs.String("trace", "", "stream per-superstep JSONL trace events to this file ('-' for stdout; replay with ipregel-trace)")
		ckptDir   = fs.String("checkpoint-dir", "", "persist checkpoints to this directory and run under the crash-recovery supervisor ("+tableApps+")")
		ckptEvery = fs.Int("checkpoint-every", 8, "checkpoint after every multiple of this many supersteps (with -checkpoint-dir)")
		ckptKeep  = fs.Int("checkpoint-keep", 3, "checkpoints retained in -checkpoint-dir (0 keeps all)")
		attempts  = fs.Int("recover-attempts", 3, "total run attempts before the recovery supervisor gives up (with -checkpoint-dir)")
		chaosSpec = fs.String("chaos", "", "inject faults per this spec, e.g. 'seed=7,panic@3,sink@5' (requires -checkpoint-dir; see internal/chaos)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// -threads 0 means "use GOMAXPROCS", but only as the untouched
	// default: an explicit -threads 0 (or negative) is a mistake the
	// engine would silently paper over, so reject it here.
	if set["threads"] && *threads < 1 {
		return fmt.Errorf("-threads must be at least 1 (got %d); omit the flag to use all processors", *threads)
	}
	// An unset parameter is zero to the app table, so an explicit -rounds
	// below 1 is refused here.
	if set["rounds"] && *rounds < 1 {
		return fmt.Errorf("-rounds must be at least 1 (got %d)", *rounds)
	}
	if *attempts < 1 {
		return fmt.Errorf("-recover-attempts must be at least 1 (got %d)", *attempts)
	}
	if *framework == "pregelplus" && *nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1 (got %d)", *nodes)
	}
	if *chaosSpec != "" && *ckptDir == "" {
		return fmt.Errorf("-chaos needs -checkpoint-dir: injected faults are only survivable with checkpoints")
	}
	if *ckptDir != "" && *framework != "ipregel" {
		return fmt.Errorf("-checkpoint-dir requires -framework ipregel, not %q", *framework)
	}
	app, inTable := algorithms.LookupApp(*appName)
	if !inTable {
		if *appName != scc {
			return fmt.Errorf("unknown app %q (%s | %s)", *appName, tableApps, scc)
		}
		app = &algorithms.App{Name: scc} // reads no parameter, has no Pregel+ version
	}
	switch {
	case !inTable && *ckptDir != "":
		return fmt.Errorf("-checkpoint-dir supports %s, not %q", tableApps, *appName)
	case *framework == "pregelplus" && app.PregelPlus == nil:
		return fmt.Errorf("pregelplus supports %s, not %q", strings.Join(algorithms.AppNames(func(a *algorithms.App) bool { return a.PregelPlus != nil }), " | "), *appName)
	}
	if *ckptDir != "" {
		// The sink makes its directory only at the first checkpoint: make
		// it here so a bad path fails before the graph loads.
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("-checkpoint-dir: %w", err)
		}
	}
	if *backend != "flat" {
		// The non-flat backends drop the shared-slice adjacency accessors,
		// which the Pregel+ baseline relies on; every iPregel app
		// (including scc's trim/Tarjan walks) goes through the iterator
		// path and runs on any backend.
		if *framework != "ipregel" {
			return fmt.Errorf("-graph-backend %s requires -framework ipregel; the %s baseline walks the flat CSR directly", *backend, *framework)
		}
	}
	dir, derr := core.ParseDirection(*direction)
	if derr != nil {
		return derr
	}
	if dir != core.DirectionPush && *framework != "ipregel" {
		return fmt.Errorf("-direction is an iPregel engine feature; -framework %s does not support it", *framework)
	}

	weighted := app.Weighted
	var g *graph.Graph
	var err error
	switch *backend {
	case "flat", "compressed":
		if g, err = loadGraph(out, *graphFile, *graphSpec, *divisor, weighted); err != nil {
			return err
		}
		if *backend == "compressed" {
			// Re-encode the loaded CSR in place (neighbour order preserved,
			// so results are identical to the flat run).
			start := time.Now()
			if g, err = g.Compress(); err != nil {
				return err
			}
			fmt.Fprintf(out, "adjacency compressed in %v: %s resident\n", time.Since(start).Round(time.Millisecond), memmodel.GB(g.MemoryBytes()))
		}
	case "mmap":
		if *graphFile == "" {
			return fmt.Errorf("-graph-backend mmap maps a binary graph file: pass one with -graph-file")
		}
		start := time.Now()
		m, err := graphio.OpenMapped(*graphFile, graphio.Options{BuildInEdges: !weighted, KeepWeights: weighted})
		if err != nil {
			return err
		}
		defer m.Close()
		g = m.Graph()
		inEdges := "no in-edges"
		if g.HasInEdges() {
			inEdges = "in-edges derived on demand"
		}
		fmt.Fprintf(out, "mapped %s read-only in %v (%s on file-backed pages, %s heap, %s)\n",
			*graphFile, time.Since(start).Round(time.Millisecond), memmodel.GB(m.MappedBytes()), memmodel.GB(g.MemoryBytes()), inEdges)
	default:
		return fmt.Errorf("unknown graph backend %q (flat | compressed | mmap)", *backend)
	}
	fmt.Fprintln(out, graph.ComputeStats(*graphSpec, g))

	// The flags reach the table's canonicaliser as ipregeld's params do:
	// only when set, except the CLI's default source.
	var p algorithms.Params
	if set["rounds"] {
		p.Rounds = *rounds
	}
	if set["source"] || app.Uses&algorithms.UsesSource != 0 {
		src := uint64(*source)
		p.Source = &src
	}
	if p, err = app.Canon(g, p); err != nil {
		return fmt.Errorf("-%w", err)
	}

	switch *framework {
	case "pregelplus":
		rep, err := app.PregelPlus(g, pregelplus.ClusterConfig{Nodes: *nodes, ProcsPerNode: 2}, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Pregel+ %d node(s): simulated %v (compute %v + network %v), %d supersteps, %d messages, %s on the wire, peak framework memory %s\n",
			*nodes, rep.SimTime.Round(time.Microsecond), rep.ComputeTime.Round(time.Microsecond), rep.NetTime.Round(time.Microsecond),
			rep.Supersteps, rep.Messages, memmodel.GB(rep.WireBytes), memmodel.GB(rep.PeakMemoryBytes))
		return nil
	case "ipregel":
	default:
		return fmt.Errorf("unknown framework %q", *framework)
	}

	comb, err := core.ParseCombiner(*combiner)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Combiner:        comb,
		SelectionBypass: *bypass,
		Threads:         *threads,
		Direction:       dir,
	}

	// Telemetry sinks observe the engine via Config.Observers; all hooks
	// fire at superstep barriers on the coordinating goroutine.
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr, collector)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		fmt.Fprintf(out, "telemetry: serving /metrics, /debug/vars and /debug/pprof on %s\n", srv.Addr)
		defer func() {
			if *telHold > 0 {
				fmt.Fprintf(out, "telemetry: holding %s on %v for scrapers\n", srv.Addr, *telHold)
				time.Sleep(*telHold)
			}
			srv.Close()
		}()
		cfg.Observers = append(cfg.Observers, collector)
	}
	if *traceOut != "" {
		w, closeTrace, err := openTraceSink(*traceOut, out)
		if err != nil {
			return err
		}
		defer closeTrace()
		cfg.Observers = append(cfg.Observers, w)
	}

	var ck *algorithms.Checkpointing
	if *ckptDir != "" {
		if ck, err = checkpointing(out, *ckptDir, *ckptEvery, *ckptKeep, *attempts, *chaosSpec); err != nil {
			return err
		}
		// Release the directory claim when this invocation is done so a
		// later run in the same process (tests, a driving harness) can
		// resume from the same -checkpoint-dir.
		defer ck.Sink.Close()
	}

	var rep core.Report
	var line string
	peak, baseline := memmodel.MeasurePeakHeap(func() {
		if !inTable {
			var labels []uint32
			labels, err = algorithms.SCC(g, cfg)
			line = fmt.Sprintf("strong components: %d", algorithms.ComponentCount(labels))
			return
		}
		runG := g
		if app.Symmetric {
			// Pull-direction supersteps collect from in-neighbours, so the
			// symmetrized graph needs in-edges whenever the run can pull.
			runG = g.Symmetrize(dir != core.DirectionPush)
		}
		var res algorithms.Result
		res, err = app.Run(context.Background(), runG, cfg, p, ck)
		rep, line = res.Report, res.Line()
	})
	if ck != nil && ck.Chaos != nil {
		for _, ev := range ck.Chaos.Fired() {
			fmt.Fprintf(out, "chaos: fired %s\n", ev)
		}
	}
	if err != nil {
		if rep.Aborted {
			// Print the (consistent) partial report so an aborted run's
			// statistics are not lost with the error.
			fmt.Fprintln(out, rep)
		}
		return err
	}
	fmt.Fprintln(out, line)
	fmt.Fprintln(out, rep)
	fmt.Fprintf(out, "peak heap: %s (baseline %s)\n", memmodel.GB(peak), memmodel.GB(baseline))
	if *backend == "mmap" {
		printMappedAfterRun(out, g)
	}
	if *verbose {
		fmt.Fprint(out, rep.Table())
	}
	return nil
}

// printMappedAfterRun says what a mapped graph's on-demand in-adjacency
// ended up costing the run: nothing unless a superstep pulled.
func printMappedAfterRun(out io.Writer, g *graph.Graph) {
	if !g.HasInEdges() {
		return
	}
	derived := "in-edges never derived"
	if g.InEdgesResident() {
		derived = "in-edges derived"
	}
	fmt.Fprintf(out, "mapped graph after the run: %s heap (%s)\n", memmodel.GB(g.MemoryBytes()), derived)
}

func loadGraph(out io.Writer, file, spec string, divisor int, weighted bool) (*graph.Graph, error) {
	start := time.Now()
	var g *graph.Graph
	var err error
	switch {
	case file != "":
		g, err = graphio.ReadFile(file, graphio.Options{BuildInEdges: !weighted, KeepWeights: weighted})
	case weighted:
		// Weighted runs on generated graphs use a weighted road grid:
		// "road:<rows>:<cols>" (weights drawn from [1, 1000]).
		var r, c int
		if _, serr := fmt.Sscanf(spec, "road:%d:%d", &r, &c); serr != nil {
			return nil, fmt.Errorf("a weighted app needs -graph-file (DIMACS with weights) or -graph road:<rows>:<cols>")
		}
		g = gen.WeightedRoad(gen.RoadParams{Rows: r, Cols: c, Base: 1, Seed: 1}, 1, 1000)
	default:
		g, err = gen.ByName(spec, gen.PresetParams{Divisor: divisor, BuildInEdges: true})
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "graph ready in %v (loading excluded from runtime, as in the paper §7.1.2)\n", time.Since(start).Round(time.Millisecond))
	return g, nil
}

// checkpointing sets up the crash-recovery flags: every barrier multiple
// of -checkpoint-every is persisted atomically to -checkpoint-dir, which
// retains -checkpoint-keep of them, and a failed attempt (compute panic,
// cancellation, sink error — injected by the optional -chaos spec, see
// internal/chaos.FromSpec, or real) resumes from the newest good
// checkpoint instead of restarting at superstep 0, up to
// -recover-attempts attempts. Each retry is narrated to out and counted
// in the shared telemetry collector.
func checkpointing(out io.Writer, dir string, every, keep, attempts int, chaosSpec string) (*algorithms.Checkpointing, error) {
	var inj *chaos.Injector
	if chaosSpec != "" {
		var err error
		if inj, err = chaos.FromSpec(chaosSpec); err != nil {
			return nil, err
		}
	}
	sink, err := core.NewFileSink(dir, keep)
	if err != nil {
		return nil, err
	}
	return &algorithms.Checkpointing{Sink: sink, Every: every, Chaos: inj, Recovery: core.RecoveryOptions{
		MaxAttempts: attempts,
		OnRetry: func(attempt int, err error) {
			collector.RecordRecovery()
			fmt.Fprintf(out, "recovery: attempt %d failed (%v), resuming from the newest checkpoint in %s\n",
				attempt, err, sink.Dir())
		},
	}}, nil
}

// collector is the process-wide metrics collector: the -telemetry
// server and the engine observers must share one instance so /metrics
// reflects the run in progress.
var collector = telemetry.NewCollector()

// openTraceSink resolves the -trace destination: a file path, or '-'
// for the run's own output stream.
func openTraceSink(path string, out io.Writer) (*telemetry.TraceWriter, func(), error) {
	if path == "-" {
		tw := telemetry.NewTraceWriter(out)
		return tw, func() { _ = tw.Flush() }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	tw := telemetry.NewTraceWriter(f)
	return tw, func() {
		_ = tw.Flush()
		_ = f.Close()
	}, nil
}
