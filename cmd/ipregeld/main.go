// Command ipregeld is the resident graph-query daemon: it loads one or
// more graphs into shared CSR storage once, then serves analytic jobs
// over HTTP/JSON against them (internal/service) — the paper's
// in-memory shared-memory model as a long-running process instead of a
// one-shot CLI.
//
// Usage:
//
//	ipregeld -graph wiki=rmat:16:8 -graph grid=road:200:200
//	ipregeld -listen 127.0.0.1:0 -graph g=ring:1024 -workers 4
//	ipregeld -graph-file usa=path/to/usa.gr -combiner spinlock
//
// Endpoints: POST /v1/jobs, GET /v1/jobs, GET /v1/jobs/{id},
// GET /v1/graphs, GET /healthz, /metrics, /debug/{vars,pprof}.
// SIGINT/SIGTERM shut down gracefully: the HTTP listener drains,
// running jobs are cancelled at their next superstep barrier, and
// their checkpoints (if enabled) stay resumable.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
	"ipregel/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ipregeld:", err)
		os.Exit(1)
	}
}

// graphArg is one -graph/-graph-file occurrence: a name and either a
// generator spec or a file path.
type graphArg struct {
	name, src string
	file      bool
}

// parseGraphArg splits "name=src"; a bare src names itself.
func parseGraphArg(v string, file bool) (graphArg, error) {
	name, src, ok := strings.Cut(v, "=")
	if !ok {
		return graphArg{name: v, src: v, file: file}, nil
	}
	if name == "" || src == "" {
		return graphArg{}, fmt.Errorf("bad graph argument %q, want name=%s", v, map[bool]string{true: "path", false: "spec"}[file])
	}
	return graphArg{name: name, src: src, file: file}, nil
}

// run is the daemon body, factored for tests: stop (may be nil)
// triggers the same graceful shutdown a signal does.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("ipregeld", flag.ContinueOnError)
	fs.SetOutput(out)
	var graphArgs []graphArg
	fs.Func("graph", "name=spec: load a generated graph (see internal/gen.ByName); repeatable", func(v string) error {
		a, err := parseGraphArg(v, false)
		graphArgs = append(graphArgs, a)
		return err
	})
	fs.Func("graph-file", "name=path: load a graph file (format by extension); repeatable", func(v string) error {
		a, err := parseGraphArg(v, true)
		graphArgs = append(graphArgs, a)
		return err
	})
	var (
		listen    = fs.String("listen", "127.0.0.1:8090", "HTTP listen address (use :0 for an ephemeral port)")
		backend   = fs.String("graph-backend", "flat", "adjacency storage for resident graphs: flat | compressed | mmap (mmap applies to -graph-file .bin files; others fall back to compressed)")
		divisor   = fs.Int("divisor", 0, "scale divisor for preset graphs (default 64)")
		combiner  = fs.String("combiner", "spinlock", "engine push inbox: mutex | spinlock (the broadcast version is -direction pull)")
		direction = fs.String("direction", "push", "default message transport per job engine: push | pull | adaptive (jobs override via params.direction; pull/adaptive load graphs with in-edges)")
		bypass    = fs.Bool("bypass", false, "selection bypass for halt-every-superstep programs (stripped per job for PageRank)")
		threads   = fs.Int("threads", 0, "default worker threads per job (0 = GOMAXPROCS)")
		workers   = fs.Int("workers", 2, "jobs executed concurrently")
		queueLen  = fs.Int("queue", 64, "job queue depth (admission control rejects beyond it)")
		cacheLen  = fs.Int("cache", 128, "LRU result-cache entries (-1 disables)")
		maxSteps  = fs.Int("max-supersteps", 100000, "per-job superstep cap and default limit")
		defDL     = fs.Duration("default-deadline", 0, "deadline for jobs that request none (0 = unlimited)")
		maxDL     = fs.Duration("max-deadline", 0, "cap on per-job deadlines (0 = uncapped)")
		ckptRoot  = fs.String("checkpoint-root", "", "checkpoint directory root; empty = a temp dir, 'off' disables crash recovery")
		ckptEvery = fs.Int("checkpoint-every", 8, "checkpoint cadence in supersteps")
		ckptKeep  = fs.Int("checkpoint-keep", 3, "checkpoints retained per job")
		attempts  = fs.Int("recover-attempts", 3, "run attempts per job before the recovery supervisor gives up")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for HTTP and running jobs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(graphArgs) == 0 {
		return fmt.Errorf("no graphs: pass at least one -graph name=spec or -graph-file name=path")
	}
	// service.Options reads zero as "use the default": refuse what the
	// service would otherwise replace silently.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"workers", *workers},
		{"queue", *queueLen},
		{"max-supersteps", *maxSteps},
		{"checkpoint-every", *ckptEvery},
		{"checkpoint-keep", *ckptKeep},
		{"recover-attempts", *attempts},
	} {
		if f.v < 1 {
			return fmt.Errorf("-%s must be at least 1 (got %d)", f.name, f.v)
		}
	}
	if *threads < 0 {
		return fmt.Errorf("-threads must be at least 0 (got %d; 0 = GOMAXPROCS)", *threads)
	}
	if *cacheLen == 0 {
		return fmt.Errorf("-cache must not be 0, which the service reads as its default of 128; -1 disables the cache")
	}

	comb, err := core.ParseCombiner(*combiner)
	if err != nil {
		return err
	}
	dir, err := core.ParseDirection(*direction)
	if err != nil {
		return err
	}
	// In-edges are loaded whenever any job could run a pull-direction
	// superstep: a pull/adaptive template default, or per-job
	// params.direction overrides (which need the template to opt in via
	// -direction).
	needIn := dir != core.DirectionPush

	root := *ckptRoot
	switch root {
	case "off":
		root = ""
	case "":
		tmp, err := os.MkdirTemp("", "ipregeld-ckpt-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	default:
		// Start makes the root too; making it here fails a bad path
		// before any graph loads.
		if err := os.MkdirAll(root, 0o755); err != nil {
			return fmt.Errorf("-checkpoint-root: %w", err)
		}
	}

	svc := service.New(service.Options{
		Queue:        *queueLen,
		Workers:      *workers,
		CacheEntries: *cacheLen,
		Engine: core.Config{
			Combiner:        comb,
			Direction:       dir,
			SelectionBypass: *bypass,
			Threads:         *threads,
		},
		MaxSupersteps:   *maxSteps,
		DefaultDeadline: *defDL,
		MaxDeadline:     *maxDL,
		CheckpointRoot:  root,
		CheckpointEvery: *ckptEvery,
		CheckpointKeep:  *ckptKeep,
		RecoverAttempts: *attempts,
	})

	if *backend != "flat" && *backend != "compressed" && *backend != "mmap" {
		return fmt.Errorf("unknown graph backend %q (flat | compressed | mmap)", *backend)
	}
	// Mappings live as long as the resident graphs they serve: released
	// only after the service has fully drained at shutdown.
	var mapped []*graphio.Mapped
	defer func() {
		for _, m := range mapped {
			_ = m.Close()
		}
	}()
	for _, a := range graphArgs {
		start := time.Now()
		var g *graph.Graph
		how := ""
		if a.file && *backend == "mmap" && strings.HasSuffix(a.src, ".bin") {
			var m *graphio.Mapped
			m, err = graphio.OpenMapped(a.src, graphio.Options{BuildInEdges: needIn})
			if err != nil {
				return fmt.Errorf("graph %s: %w", a.name, err)
			}
			mapped = append(mapped, m)
			g = m.Graph()
			how = " (mapped read-only)"
			if needIn {
				how = " (mapped read-only, in-edges derived on demand)"
			}
		} else {
			if a.file {
				g, err = graphio.ReadFile(a.src, graphio.Options{BuildInEdges: needIn})
			} else {
				g, err = gen.ByName(a.src, gen.PresetParams{Divisor: *divisor, BuildInEdges: needIn})
			}
			if err != nil {
				return fmt.Errorf("graph %s: %w", a.name, err)
			}
			if *backend != "flat" {
				// compressed, or the mmap fallback for sources that have no
				// mappable binary file behind them
				if g, err = g.Compress(); err != nil {
					return fmt.Errorf("graph %s: %w", a.name, err)
				}
				how = " (compressed)"
			}
		}
		if err := svc.AddGraph(a.name, g, a.src); err != nil {
			return err
		}
		fmt.Fprintf(out, "ipregeld: loaded graph %s: %d vertices, %d edges in %v%s\n",
			a.name, g.N(), g.M(), time.Since(start).Round(time.Millisecond), how)
	}

	if err := svc.Start(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	svc.Collector().Publish()
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(out, "ipregeld: serving on %s\n", ln.Addr())

	sigCtx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	select {
	case <-sigCtx.Done():
	case <-stop:
	case err := <-serveErr:
		svcCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		_ = svc.Close(svcCtx)
		return fmt.Errorf("http server: %w", err)
	}

	fmt.Fprintln(out, "ipregeld: shutting down")
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), *drain)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		_ = srv.Close()
	}
	svcCtx, cancelSvc := context.WithTimeout(context.Background(), *drain)
	defer cancelSvc()
	if err := svc.Close(svcCtx); err != nil {
		return err
	}
	fmt.Fprintln(out, "ipregeld: bye")
	return nil
}
