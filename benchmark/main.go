// Command benchmark is the repository's one benchmark: six named workloads
// from file load to daemon latency, each checked against a reference and
// timed from outside the program. README.md explains the workloads, the
// metrics and how they interact; BENCHMARK.json is the contract a driver
// runs it by.
//
// With -workload it runs one workload for one pass and prints one JSON
// result as the last line of standard output. Without, it runs every
// workload in a child process each, an untraced pass then a traced one,
// and writes out/result.json (suite.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     string
	reps      int
	loadgen   bool
	out       string
	pass      string
	selfcheck bool
	seeds     int
}

// scale sizes the inputs. "full" is what BENCHMARK.json measures; "smoke"
// shrinks everything so the smoke test finishes in seconds.
type scale struct {
	rmatDiv, roadDiv, svcDiv int     // gen preset divisors
	svcRate                  float64 // open-loop arrival rate, jobs/s
	svcWarm                  float64 // seconds of traffic before the measured window
	setups                   int     // least number of set-ups behind setup_s
}

var scales = map[string]scale{
	"full":  {rmatDiv: 128, roadDiv: 32, svcDiv: 2048, svcRate: 20, svcWarm: 1, setups: 5},
	"smoke": {rmatDiv: 8192, roadDiv: 16384, svcDiv: 16384, svcRate: 40, svcWarm: 0.3, setups: 1},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the one-line JSON result of a single-workload run.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run is the state one workload run accumulates.
type run struct {
	opts  options
	sc    scale
	nproc int     // min(nproc, GOMAXPROCS): threads of the traced pass's parallel repetitions
	tmp   string  // scratch directory, removed when the run ends
	tr    *tracer // nil on the untraced pass
	log   io.Writer

	attempted, failed int
	vals              map[string]float64
}

func (r *run) set(name string, v float64) { r.vals[name] = v }

// fail counts one failed operation and says why.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.log, "FAIL %s: %s\n", r.opts.workload, fmt.Sprintf(format, args...))
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, confineToOneCPU)) }

// realMain is main with its surroundings as arguments. confine is how a
// workload that wants a single processor gets one — by restarting the
// process, so the smoke test, which runs workloads inside the test binary,
// passes nil.
func realMain(args []string, stdout, stderr io.Writer, confine func() error) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print one JSON result line (default: the whole suite)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "input sizes: full | smoke")
	fs.IntVar(&o.reps, "reps", 0, "measure exactly this many repetitions instead of filling -seconds (engine workloads)")
	fs.BoolVar(&o.loadgen, "loadgen", false, "internal: run as service_mixed's load generator (plan on stdin, report on stdout)")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for result.json, trace files and scratch data")
	fs.StringVar(&o.pass, "pass", "both", "suite: untraced | traced | both")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "suite: run the untraced pass over -seeds seeds twice and compare the two sets against the bounds")
	fs.IntVar(&o.seeds, "seeds", 10, "selfcheck: seeds per set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if _, ok := scales[o.scale]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown -scale %q (full | smoke)\n", o.scale)
		return 2
	}
	// More runnable threads than processors and the numbers measure the
	// scheduler, not the program.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(stderr, "benchmark: GOMAXPROCS %d exceeds the %d available processors; refusing to measure\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 1
	}
	var err error
	switch {
	case o.loadgen:
		err = loadgen(os.Stdin, stdout)
	case o.workload != "":
		err = runOne(o, stdout, stderr, confine)
	case o.selfcheck:
		err = selfcheck(o, stdout, stderr)
	default:
		err = suite(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne runs a single workload for a single pass and prints its result.
func runOne(o options, stdout, stderr io.Writer, confine func() error) error {
	wl, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if wl.oneCPU && confine != nil {
		if err := confine(); err != nil { // measured all the same, on whatever processors there are
			fmt.Fprintf(stderr, "benchmark: %s is not confined to one processor: %v\n", o.workload, err)
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	r := &run{
		opts:  o,
		sc:    scales[o.scale],
		nproc: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		tmp:   tmp,
		log:   stderr,
		vals:  make(map[string]float64),
	}
	defs := endToEnd
	if o.trace == 1 {
		r.tr = newTracer()
		defs = perLayer
		for _, d := range defs {
			r.vals[d.Name] = 0 // a layer this workload does not exercise stays 0
		}
	}
	start := time.Now()
	if err := wl.run(r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if r.tr != nil {
		path := filepath.Join(o.out, "trace-"+o.workload+".jsonl")
		if err := r.tr.writeFile(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d spans in %s\n", o.workload, len(r.tr.spans), path)
		r.tr.selfTimeTable(stdout)
	}

	res := outcome{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", o.workload, d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%-22s %-38s %16.6g %s\n", o.workload, d.Name, v, d.Unit)
	}
	fmt.Fprintf(stdout, "%s: pass %d took %.1fs, %d operations, %d failed\n", o.workload, o.trace, time.Since(start).Seconds(), r.attempted, r.failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", o.workload, r.failed, r.attempted)
	}
	return nil
}
