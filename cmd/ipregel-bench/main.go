// Command ipregel-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ipregel-bench -list
//	ipregel-bench -exp fig7 [-divisor 64] [-threads 2] [-quick]
//	ipregel-bench -all -quick [-csv results/]
//
// Each experiment prints the same rows/series the corresponding paper
// artefact reports, at the configured synthetic-graph scale (see
// DESIGN.md for the per-experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ipregel/internal/bench"
	"ipregel/internal/core"
	"ipregel/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ipregel-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ipregel-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		exp     = fs.String("exp", "", "experiment id to run (see -list)")
		all     = fs.Bool("all", false, "run every experiment")
		list    = fs.Bool("list", false, "list experiments")
		divisor = fs.Int("divisor", 0, "graph scale divisor (default 64 = 1/64 of the paper's graphs)")
		threads = fs.Int("threads", 0, "iPregel worker threads (default GOMAXPROCS); with 1 every push combiner runs the same lock-free inbox, so fig7's mutex-vs-spinlock columns — a contention comparison — coincide")
		quick   = fs.Bool("quick", false, "fewer repetitions and smaller sweeps")
		rounds  = fs.Int("pagerank-rounds", 0, "PageRank iterations (default 30, as in the paper)")
		csvDir  = fs.String("csv", "", "also write figure data series as CSV files into this directory")
		telAddr = fs.String("telemetry", "", "serve live /metrics, expvar and /debug/pprof on this address (e.g. :8080) while experiments run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var observers []core.Observer
	if *telAddr != "" {
		c := telemetry.NewCollector()
		srv, err := telemetry.Serve(*telAddr, c)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(out, "telemetry: serving /metrics, /debug/vars and /debug/pprof on %s\n", srv.Addr)
		observers = append(observers, c)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(out, "%-22s %s\n", e.ID, e.Title)
		}
		return nil
	}

	o := &bench.Options{Divisor: *divisor, Threads: *threads, Quick: *quick, PRRounds: *rounds, CSVDir: *csvDir, Observers: observers}
	switch {
	case *all:
		return bench.RunAll(o, out)
	case *exp != "":
		return bench.Run(*exp, o, out)
	}
	fs.Usage()
	return fmt.Errorf("nothing to do: pass -list, -exp <id> or -all")
}
