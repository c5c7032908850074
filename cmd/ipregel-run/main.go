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
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ipregel/internal/algorithms"
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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ipregel-run", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		app       = fs.String("app", "pagerank", "application: pagerank | pagerank-converged | hashmin | wcc | scc | sssp | wsssp | bfs | reach64")
		graphSpec = fs.String("graph", "wiki", "generator spec ("+strings.Join(gen.Names(), " | ")+")")
		graphFile = fs.String("graph-file", "", "load a graph file instead of generating")
		backend   = fs.String("graph-backend", "flat", "adjacency storage: flat | compressed (delta+varint blocks) | mmap (map a .bin graph file read-only; requires -graph-file)")
		divisor   = fs.Int("divisor", 0, "scale divisor for preset graphs (default 64)")
		framework = fs.String("framework", "ipregel", "ipregel | pregelplus (see DESIGN.md)")
		combiner  = fs.String("combiner", "spinlock", "iPregel push inbox: mutex | spinlock (the broadcast version is -direction pull)")
		bypass    = fs.Bool("bypass", false, "enable selection bypass (Hashmin/SSSP only)")
		threads   = fs.Int("threads", 0, "worker threads (default GOMAXPROCS)")
		direction = fs.String("direction", "push", "iPregel message transport per superstep: push | pull (the paper's broadcast version) | adaptive (density-switched); pull and adaptive need broadcast-only apps")
		rounds    = fs.Int("rounds", 30, "PageRank iterations")
		source    = fs.Uint("source", 2, "SSSP/BFS source vertex identifier")
		nodes     = fs.Int("nodes", 1, "pregelplus: simulated node count")
		verbose   = fs.Bool("v", false, "print per-superstep statistics")
		telAddr   = fs.String("telemetry", "", "serve live /metrics, expvar and /debug/pprof on this address (e.g. :8080) during the run")
		telHold   = fs.Duration("telemetry-hold", 0, "keep the telemetry endpoint up this long after the run (for scrapers)")
		traceOut  = fs.String("trace", "", "stream per-superstep JSONL trace events to this file ('-' for stdout; replay with ipregel-trace)")
		ckptDir   = fs.String("checkpoint-dir", "", "persist checkpoints to this directory and run under the crash-recovery supervisor (pagerank | pagerank-converged | hashmin | sssp)")
		ckptEvery = fs.Int("checkpoint-every", 8, "checkpoint after every multiple of this many supersteps (with -checkpoint-dir)")
		ckptKeep  = fs.Int("checkpoint-keep", 3, "checkpoints retained in -checkpoint-dir (0 keeps all)")
		attempts  = fs.Int("recover-attempts", 3, "total run attempts before the recovery supervisor gives up (with -checkpoint-dir)")
		chaosSpec = fs.String("chaos", "", "inject faults per this spec, e.g. 'seed=7,panic@3,sink@5' (requires -checkpoint-dir; see internal/chaos)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -threads 0 means "use GOMAXPROCS", but only as the untouched
	// default: an explicit -threads 0 (or negative) is a mistake the
	// engine would silently paper over, so reject it here.
	var threadsSet bool
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "threads" {
			threadsSet = true
		}
	})
	if threadsSet && *threads < 1 {
		return fmt.Errorf("-threads must be at least 1 (got %d); omit the flag to use all processors", *threads)
	}
	if *app == "pagerank" && *rounds < 1 {
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

	var g *graph.Graph
	var err error
	switch *backend {
	case "flat", "compressed":
		if g, err = loadGraph(out, *graphFile, *graphSpec, *divisor, *app == "wsssp"); err != nil {
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
		m, err := graphio.OpenMapped(*graphFile, graphio.Options{BuildInEdges: *app != "wsssp", KeepWeights: *app == "wsssp"})
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
	switch *app {
	case "sssp", "wsssp", "bfs", "reach64":
		base, n := uint64(g.Base()), uint64(g.N())
		if src := uint64(*source); src < base || src >= base+n {
			return fmt.Errorf("-source %d outside the graph's identifier range [%d, %d)", src, base, base+n)
		}
	}

	switch *framework {
	case "pregelplus":
		return runPregelPlus(out, g, *app, *rounds, graph.VertexID(*source), *nodes)
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
		srv, err := telemetry.Serve(*telAddr, telemetryCollector())
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
		cfg.Observers = append(cfg.Observers, telemetryCollector())
	}
	if *traceOut != "" {
		w, closeTrace, err := openTraceSink(*traceOut, out)
		if err != nil {
			return err
		}
		defer closeTrace()
		cfg.Observers = append(cfg.Observers, w)
	}

	if *ckptDir != "" {
		rf := recoveryFlags{dir: *ckptDir, every: *ckptEvery, keep: *ckptKeep, attempts: *attempts, chaos: *chaosSpec}
		var rep core.Report
		peak, baseline := memmodel.MeasurePeakHeap(func() {
			rep, err = runRecoverable(out, g, cfg, rf, *app, *rounds, graph.VertexID(*source))
		})
		if err != nil {
			return err
		}
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

	var rep core.Report
	peak, baseline := memmodel.MeasurePeakHeap(func() {
		switch *app {
		case "pagerank":
			_, rep, err = algorithms.PageRank(g, cfg, *rounds)
		case "hashmin":
			var labels []uint32
			labels, rep, err = algorithms.Hashmin(g, cfg)
			if err == nil {
				fmt.Fprintf(out, "components: %d\n", algorithms.ComponentCount(labels))
			}
		case "sssp":
			var dist []uint32
			dist, rep, err = algorithms.SSSP(g, cfg, graph.VertexID(*source))
			if err == nil {
				fmt.Fprintf(out, "reached: %d of %d vertices\n", countReached(dist), len(dist))
			}
		case "wsssp":
			var dist []uint32
			dist, rep, err = algorithms.WeightedSSSP(g, cfg, graph.VertexID(*source))
			if err == nil {
				fmt.Fprintf(out, "reached: %d of %d vertices\n", countReached(dist), len(dist))
			}
		case "pagerank-converged":
			var ranks []float64
			ranks, rep, err = algorithms.PageRankConverged(g, cfg, 1e-9)
			if err == nil {
				fmt.Fprintf(out, "converged in %d supersteps over %d vertices\n", rep.Supersteps, len(ranks))
			}
		case "bfs":
			var states []algorithms.BFSState
			states, rep, err = algorithms.BFS(g, cfg, graph.VertexID(*source))
			if err == nil {
				n := 0
				for _, s := range states {
					if s.Depth != algorithms.Infinity {
						n++
					}
				}
				fmt.Fprintf(out, "reached: %d of %d vertices\n", n, len(states))
			}
		case "wcc":
			var labels []uint32
			labels, rep, err = algorithms.WCC(g, cfg)
			if err == nil {
				fmt.Fprintf(out, "weak components: %d\n", algorithms.ComponentCount(labels))
			}
		case "scc":
			var labels []uint32
			labels, err = algorithms.SCC(g, cfg)
			if err == nil {
				fmt.Fprintf(out, "strong components: %d\n", algorithms.ComponentCount(labels))
			}
		case "reach64":
			var masks []uint64
			seeds := []graph.VertexID{graph.VertexID(*source)}
			masks, rep, err = algorithms.Reach64(g, cfg, seeds)
			if err == nil {
				n := 0
				for _, m := range masks {
					if m != 0 {
						n++
					}
				}
				fmt.Fprintf(out, "reached: %d of %d vertices\n", n, len(masks))
			}
		default:
			err = fmt.Errorf("unknown app %q", *app)
		}
	})
	if err != nil {
		if rep.Aborted {
			// Print the (consistent) partial report so an aborted run's
			// statistics are not lost with the error.
			fmt.Fprintln(out, rep)
		}
		return err
	}
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
			return nil, fmt.Errorf("wsssp needs -graph-file (DIMACS with weights) or -graph road:<rows>:<cols>")
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

func runPregelPlus(out io.Writer, g *graph.Graph, app string, rounds int, source graph.VertexID, nodes int) error {
	cfg := pregelplus.ClusterConfig{Nodes: nodes, ProcsPerNode: 2}
	var rep pregelplus.Report
	var err error
	switch app {
	case "pagerank":
		_, rep, err = pregelplus.PageRank(g, cfg, rounds)
	case "hashmin":
		_, rep, err = pregelplus.Hashmin(g, cfg)
	case "sssp":
		_, rep, err = pregelplus.SSSP(g, cfg, source)
	default:
		return fmt.Errorf("pregelplus supports pagerank | hashmin | sssp, not %q", app)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Pregel+ %d node(s): simulated %v (compute %v + network %v), %d supersteps, %d messages, %s on the wire, peak framework memory %s\n",
		nodes, rep.SimTime.Round(time.Microsecond), rep.ComputeTime.Round(time.Microsecond), rep.NetTime.Round(time.Microsecond),
		rep.Supersteps, rep.Messages, memmodel.GB(rep.WireBytes), memmodel.GB(rep.PeakMemoryBytes))
	return nil
}

func countReached(dist []uint32) int {
	n := 0
	for _, d := range dist {
		if d != algorithms.Infinity {
			n++
		}
	}
	return n
}

// sharedCollector is the process-wide metrics collector: the -telemetry
// server and the engine observers must share one instance so /metrics
// reflects the run in progress.
var sharedCollector = telemetry.NewCollector()

func telemetryCollector() *telemetry.Collector { return sharedCollector }

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
