// Package bench is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation (§7), plus the inbox
// ablation DESIGN.md calls out. Each experiment prints the same
// rows/series the paper reports, at the configured graph scale; the
// cmd/ipregel-bench binary runs them by identifier.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
	"ipregel/internal/stats"
)

// Options scales and parameterises the experiments.
type Options struct {
	// Divisor scales the paper's graphs down (gen.DefaultScaleDivisor when
	// zero). Larger divisors make every experiment proportionally faster.
	Divisor int
	// Threads is the iPregel worker count; 0 means GOMAXPROCS, matching
	// the paper's one-thread-per-core setup.
	Threads int
	// Protocol is the measurement protocol; the zero value follows the
	// paper (5 reps, 1% margin at 99%) with a practical cap. Quick sets a
	// cheaper protocol suited to smoke runs.
	Protocol stats.Protocol
	// Quick reduces repetitions and sweep sizes for fast runs.
	Quick bool
	// PRRounds is the PageRank iteration count (paper: 30).
	PRRounds int
	// SSSPSource is the SSSP source identifier (paper: vertex '2').
	SSSPSource graph.VertexID
	// NodeCounts is the Fig. 8 sweep (paper: up to 16 nodes, powers of 2).
	NodeCounts []int
	// CSVDir, when set, makes the figure experiments also write their data
	// series as <CSVDir>/<experiment>.csv for external plotting.
	CSVDir string
	// Observers are attached to every iPregel engine the experiments
	// build (the cmd/ipregel-bench -telemetry flag routes a live
	// telemetry.Collector through here), so long sweeps expose the same
	// /metrics view as single ipregel-run invocations.
	Observers []core.Observer

	cache map[string]*graph.Graph
}

func (o *Options) withDefaults() *Options {
	if o == nil {
		o = &Options{}
	}
	if o.Divisor <= 0 {
		o.Divisor = gen.DefaultScaleDivisor
	}
	if o.PRRounds <= 0 {
		o.PRRounds = 30
	}
	if o.SSSPSource == 0 {
		o.SSSPSource = 2
	}
	if len(o.NodeCounts) == 0 {
		if o.Quick {
			o.NodeCounts = []int{1, 4, 16}
		} else {
			o.NodeCounts = []int{1, 2, 4, 8, 16}
		}
	}
	if o.Protocol.MinReps == 0 {
		if o.Quick {
			o.Protocol = stats.Protocol{MinReps: 2, MaxReps: 3, TargetRelMargin: 0.25}
		} else {
			o.Protocol = stats.Protocol{MinReps: 5, MaxReps: 15, TargetRelMargin: 0.01}
		}
	}
	if o.cache == nil {
		o.cache = map[string]*graph.Graph{}
	}
	return o
}

// Graph returns (and caches) a paper-graph stand-in at the configured
// scale, always with in-edges so every engine version can run.
func (o *Options) Graph(name string) (*graph.Graph, error) {
	if g, ok := o.cache[name]; ok {
		return g, nil
	}
	g, err := gen.ByName(name, gen.PresetParams{Divisor: o.Divisor, BuildInEdges: true})
	if err != nil {
		return nil, err
	}
	o.cache[name] = g
	return g, nil
}

func (o *Options) engineConfig(cfg core.Config) core.Config {
	cfg.Threads = o.Threads
	cfg.Observers = append(cfg.Observers, o.Observers...)
	return cfg
}

// appSpec is one of the three evaluation applications (§7.1.4): its
// entry in the app table, run on both frameworks with the harness's
// parameters.
type appSpec struct {
	name   string
	app    *algorithms.App
	params algorithms.Params
}

func apps(o *Options) []appSpec {
	app := func(name string) *algorithms.App {
		a, _ := algorithms.LookupApp(name)
		return a
	}
	src := uint64(o.SSSPSource)
	return []appSpec{
		{"PageRank", app("pagerank"), algorithms.Params{Rounds: o.PRRounds}},
		{"Hashmin", app("hashmin"), algorithms.Params{}},
		{"SSSP", app("sssp"), algorithms.Params{Source: &src}},
	}
}

// versionsFor returns the engine versions an application admits: three
// combiners without bypass for PageRank, all six otherwise (§7.2).
func versionsFor(app appSpec) []core.Config {
	var out []core.Config
	for _, cfg := range core.AllVersions() {
		if cfg.SelectionBypass && !app.app.HaltsEverySuperstep {
			continue
		}
		out = append(out, cfg)
	}
	return out
}

// bestVersionFor returns the paper's per-application winner used as the
// Fig. 8 single-node reference: broadcast for PageRank, spinlock+bypass
// for Hashmin and SSSP (§7.2).
func bestVersionFor(app appSpec) core.Config {
	if app.app.HaltsEverySuperstep {
		return core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}
	}
	return core.Config{Direction: core.DirectionPull}
}

// measureIP runs one iPregel configuration under the measurement
// protocol (superstep time only, like the paper §7.1.2), returning the
// stable mean. A GC cycle runs before each repetition so collector
// pauses triggered by the previous repetition's garbage do not land
// inside the next measurement.
func measureIP(o *Options, app appSpec, g *graph.Graph, cfg core.Config) (stats.Measurement, error) {
	var runErr error
	m := stats.RunUntilStable(o.Protocol, func() time.Duration {
		runtime.GC()
		res, err := app.app.Run(context.Background(), g, o.engineConfig(cfg), app.params, nil)
		if err != nil {
			runErr = err
			return 0
		}
		return res.Report.Duration
	})
	return m, runErr
}

// measurePP runs one Pregel+ deployment under the measurement protocol
// (on the simulated clock).
func measurePP(o *Options, app appSpec, g *graph.Graph, cfg pregelplus.ClusterConfig) (stats.Measurement, pregelplus.Report, error) {
	var runErr error
	var last pregelplus.Report
	m := stats.RunUntilStable(o.Protocol, func() time.Duration {
		runtime.GC()
		rep, err := app.app.PregelPlus(g, cfg, app.params)
		if err != nil {
			runErr = err
			return 0
		}
		last = rep
		return rep.SimTime
	})
	return m, last, runErr
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the registry key, e.g. "fig7".
	ID string
	// Title names the paper artefact.
	Title string
	// Run prints the experiment's rows to w.
	Run func(o *Options, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns the registered experiments sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in registry order.
func RunAll(o *Options, w io.Writer) error {
	o = o.withDefaults()
	for _, e := range Experiments() {
		fmt.Fprintf(w, "\n===== %s — %s =====\n", e.ID, e.Title)
		if err := e.Run(o, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// Run executes one experiment by ID with defaulted options.
func Run(id string, o *Options, w io.Writer) error {
	e, ok := ByID(id)
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids())
	}
	o = o.withDefaults()
	fmt.Fprintf(w, "===== %s — %s =====\n", e.ID, e.Title)
	return e.Run(o, w)
}

func ids() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	return out
}
