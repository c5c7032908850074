package algorithms

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"ipregel/internal/chaos"
	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

// The app table: every app a front end runs by name (ipregel-run,
// ipregeld, the experiment harness), with what it needs to validate the
// app's parameters, run it directly or under the crash-recovery
// supervisor, and report its answer. It is the only place that maps an
// app name to a program. SCC is not in it: it drives several runs, not
// one program, so it has nothing to checkpoint.

// Params are an app's program parameters as a front end received them;
// a zero field is unset.
type Params struct {
	// Rounds is PageRank's iteration count.
	Rounds int
	// Tolerance is pagerank-converged's stopping threshold.
	Tolerance float64
	// Source is the source vertex, as an external identifier.
	Source *uint64
}

// The parameters' defaults and ranges, the same in every front end.
const (
	DefaultRounds    = 30
	MaxRounds        = 100000
	DefaultTolerance = 1e-9
)

// Param is one bit of App.Uses.
type Param uint8

// The parameters a program can read.
const (
	UsesRounds Param = 1 << iota
	UsesTolerance
	UsesSource
)

// Answer is what an app's vertex values mean, and so what a run reports.
type Answer uint8

const (
	// Ranks are PageRank values; a run reports their sum.
	Ranks Answer = iota
	// Labels are component labels; a run reports how many differ.
	Labels
	// Reach says whether a source reached the vertex (a distance, a
	// depth, a seed mask); a run reports how many it reached.
	Reach
)

// App is one entry of the table.
type App struct {
	Name   string
	Uses   Param
	Answer Answer
	// HaltsEverySuperstep: every vertex votes to halt at every superstep
	// (§7.1.4), so the app may run under Config.SelectionBypass.
	HaltsEverySuperstep bool
	// Symmetric apps run on g.Symmetrize, so labels also flow against
	// edge direction; the front end builds (or caches) that graph.
	Symmetric bool
	// Weighted apps read edge weights and send per edge: the front end
	// loads the graph with weights, and the program refuses to pull.
	Weighted bool
	// PregelPlus runs the app on the Pregel+ baseline; nil when the
	// baseline has no version of it.
	PregelPlus func(g *graph.Graph, cfg pregelplus.ClusterConfig, p Params) (pregelplus.Report, error)

	build func(p Params) runner
}

var table = []*App{
	{Name: "pagerank", Uses: UsesRounds, Answer: Ranks,
		build: func(p Params) runner { return ranks(PageRankProgram(p.Rounds)) },
		PregelPlus: func(g *graph.Graph, cfg pregelplus.ClusterConfig, p Params) (pregelplus.Report, error) {
			_, rep, err := pregelplus.PageRank(g, cfg, p.Rounds)
			return rep, err
		}},
	{Name: "pagerank-converged", Uses: UsesTolerance, Answer: Ranks,
		build: func(p Params) runner { return ranks(PageRankConvergedProgram(p.Tolerance)) }},
	{Name: "hashmin", Answer: Labels, HaltsEverySuperstep: true,
		build: func(Params) runner { return labels(HashminProgram()) },
		PregelPlus: func(g *graph.Graph, cfg pregelplus.ClusterConfig, _ Params) (pregelplus.Report, error) {
			_, rep, err := pregelplus.Hashmin(g, cfg)
			return rep, err
		}},
	{Name: "wcc", Answer: Labels, HaltsEverySuperstep: true, Symmetric: true,
		build: func(Params) runner { return labels(HashminProgram()) }},
	{Name: "sssp", Uses: UsesSource, Answer: Reach, HaltsEverySuperstep: true,
		build: func(p Params) runner { return distances(SSSPProgram(source(p))) },
		PregelPlus: func(g *graph.Graph, cfg pregelplus.ClusterConfig, p Params) (pregelplus.Report, error) {
			_, rep, err := pregelplus.SSSP(g, cfg, source(p))
			return rep, err
		}},
	{Name: "wsssp", Uses: UsesSource, Answer: Reach, HaltsEverySuperstep: true, Weighted: true,
		build: func(p Params) runner { return distances(WeightedSSSPProgram(source(p))) }},
	{Name: "bfs", Uses: UsesSource, Answer: Reach, HaltsEverySuperstep: true,
		build: func(p Params) runner { return bfs(BFSProgram(source(p))) }},
	{Name: "reach64", Uses: UsesSource, Answer: Reach, HaltsEverySuperstep: true,
		build: func(p Params) runner { return reach(Reach64Program([]graph.VertexID{source(p)})) }},
}

// LookupApp returns the table's app of that name.
func LookupApp(name string) (*App, bool) {
	for _, a := range table {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// AppNames lists, in table order, the apps keep selects (all when nil).
func AppNames(keep func(*App) bool) []string {
	var names []string
	for _, a := range table {
		if keep == nil || keep(a) {
			names = append(names, a.Name)
		}
	}
	return names
}

// Canon validates p for the app and applies the defaults. A parameter
// the app does not read is refused, so two requests that compute the
// same thing never differ in one. An error's text begins with the
// parameter's name, which each front end prefixes in its own syntax.
func (a *App) Canon(g *graph.Graph, p Params) (Params, error) {
	for _, f := range []struct {
		bit  Param
		name string
		set  bool
	}{{UsesRounds, "rounds", p.Rounds != 0}, {UsesTolerance, "tolerance", p.Tolerance != 0}, {UsesSource, "source", p.Source != nil}} {
		if f.set && a.Uses&f.bit == 0 {
			return Params{}, fmt.Errorf("%s is not used by %s", f.name, a.Name)
		}
	}
	var out Params
	if a.Uses&UsesRounds != 0 {
		if out.Rounds = cmp.Or(p.Rounds, DefaultRounds); out.Rounds < 1 || out.Rounds > MaxRounds {
			return Params{}, fmt.Errorf("rounds must be in [1, %d]", MaxRounds)
		}
	}
	if a.Uses&UsesTolerance != 0 {
		if out.Tolerance = cmp.Or(p.Tolerance, DefaultTolerance); !(out.Tolerance > 0 && out.Tolerance < 1) {
			return Params{}, errors.New("tolerance must be in (0, 1)")
		}
	}
	if a.Uses&UsesSource != 0 {
		if p.Source == nil {
			return Params{}, errors.New("source is required")
		}
		src, base, n := *p.Source, uint64(g.Base()), uint64(g.N())
		if src < base || src >= base+n {
			return Params{}, fmt.Errorf("source %d outside the graph's identifier range [%d, %d)", src, base, base+n)
		}
		out.Source = &src
	}
	return out, nil
}

// Identity names the program an app runs for canonical params: the
// service's cache key is built on it.
func Identity(name string, p Params) string {
	b := []byte(name)
	if p.Rounds != 0 {
		b = strconv.AppendInt(append(b, " rounds="...), int64(p.Rounds), 10)
	}
	if p.Tolerance != 0 {
		b = strconv.AppendFloat(append(b, " tolerance="...), p.Tolerance, 'g', -1, 64)
	}
	if p.Source != nil {
		b = strconv.AppendUint(append(b, " source="...), *p.Source, 10)
	}
	return string(b)
}

// Checkpointing runs an app under core.RunWithRecovery.
type Checkpointing struct {
	// Sink takes a checkpoint after every multiple of Every supersteps,
	// and a failed attempt resumes from its newest good one.
	Sink  *core.FileSink
	Every int
	// Recovery bounds the attempts and hooks each retry.
	Recovery core.RecoveryOptions
	// Chaos, when set, injects its faults into the program, the sink and
	// each attempt's context.
	Chaos *chaos.Injector
}

// Run runs the app's program for p, as Canon returned it, on g
// (g.Symmetrize for a Symmetric app): directly when ck is nil, else
// under the crash-recovery supervisor. A failed run's Result holds only
// its report.
func (a *App) Run(ctx context.Context, g *graph.Graph, cfg core.Config, p Params, ck *Checkpointing) (Result, error) {
	if a.Weighted {
		if err := checkWeighted(g, cfg); err != nil {
			return Result{app: a}, err
		}
	}
	r, err := a.build(p).run(ctx, g, cfg, ck)
	r.app = a
	if err == nil && a.Uses&UsesTolerance != 0 {
		r.ConvergedIn = r.Report.Supersteps // it ran until the tolerance was met
	}
	return r, err
}

// Result is a finished run, in the terms every front end reports.
type Result struct {
	Report core.Report
	// Vertices is the number of vertices answered for.
	Vertices int
	// RankSum (Ranks), Components (Labels) and Reached (Reach) sum the
	// values up; ConvergedIn is the superstep count of an app that runs
	// to a tolerance.
	RankSum     float64
	Components  int
	Reached     int
	ConvergedIn int
	// Ranks are the PageRank values (Ranks apps), in internal-index
	// order.
	Ranks []float64
	// Value reads vertex i's value (internal index) as a float64: a
	// rank, a distance or depth, a label or a seed mask.
	Value func(i int) float64
	// Parent reads vertex i's BFS predecessor: nil for the other apps,
	// and at the source and at unreached vertices.
	Parent func(i int) *uint64

	app *App
}

// Line is the result line ipregel-run prints.
func (r Result) Line() string {
	switch {
	case r.app.Answer == Reach:
		return fmt.Sprintf("reached: %d of %d vertices", r.Reached, r.Vertices)
	case r.app.Answer == Labels && r.app.Symmetric:
		return fmt.Sprintf("weak components: %d", r.Components)
	case r.app.Answer == Labels:
		return fmt.Sprintf("components: %d", r.Components)
	case r.ConvergedIn > 0:
		return fmt.Sprintf("converged in %d supersteps over %d vertices, rank sum %v", r.ConvergedIn, r.Vertices, r.RankSum)
	default:
		return fmt.Sprintf("ranks computed for %d vertices, rank sum %v", r.Vertices, r.RankSum)
	}
}

// runner is a built program with its value and message types erased.
type runner interface {
	run(ctx context.Context, g *graph.Graph, cfg core.Config, ck *Checkpointing) (Result, error)
}

// program is a core.Program with its checkpoint codecs and the reading
// of its values as an answer.
type program[V, M any] struct {
	prog      core.Program[V, M]
	vc        core.Codec[V]
	mc        core.Codec[M]
	value     func(V) float64
	parent    func(V) *uint64
	summarise func(vals []V, r *Result)
}

func (p program[V, M]) run(ctx context.Context, g *graph.Graph, cfg core.Config, ck *Checkpointing) (Result, error) {
	var e *core.Engine[V, M]
	var rep core.Report
	var err error
	if ck == nil {
		if e, err = core.New(g, cfg, p.prog); err == nil {
			rep, err = e.RunContext(ctx)
		}
	} else {
		prog, sink, opts := p.prog, ck.Sink.Sink, ck.Recovery
		if inj := ck.Chaos; inj != nil {
			prog = chaos.WrapProgram(inj, prog)
			cfg.Observers = append(cfg.Observers[:len(cfg.Observers):len(cfg.Observers)], inj.Observer())
			sink = inj.WrapSink(sink)
			opts.AttemptContext = func(parent context.Context, _ int) (context.Context, context.CancelFunc) {
				return inj.Context(parent)
			}
		}
		cp := core.Checkpointer[V, M]{Every: ck.Every, Sink: sink, VCodec: p.vc, MCodec: p.mc}
		e, rep, err = core.RunWithRecovery(ctx, g, cfg, prog, cp, ck.Sink, opts)
	}
	r := Result{Report: rep}
	if err != nil {
		return r, err
	}
	vals := e.ValuesDense()
	r.Vertices = len(vals)
	r.Value = func(i int) float64 { return p.value(vals[i]) }
	if p.parent != nil {
		r.Parent = func(i int) *uint64 { return p.parent(vals[i]) }
	}
	p.summarise(vals, &r)
	return r, nil
}

func ranks(prog core.Program[float64, float64]) program[float64, float64] {
	return program[float64, float64]{prog: prog, vc: pregelplus.Float64Codec{}, mc: pregelplus.Float64Codec{},
		value: func(x float64) float64 { return x },
		summarise: func(ranks []float64, r *Result) {
			r.Ranks = ranks
			for _, x := range ranks {
				r.RankSum += x
			}
		}}
}

func labels(prog core.Program[uint32, uint32]) program[uint32, uint32] {
	return program[uint32, uint32]{prog: prog, vc: pregelplus.Uint32Codec{}, mc: pregelplus.Uint32Codec{},
		value:     func(l uint32) float64 { return float64(l) },
		summarise: func(labels []uint32, r *Result) { r.Components = ComponentCount(labels) }}
}

func distances(prog core.Program[uint32, uint32]) program[uint32, uint32] {
	return program[uint32, uint32]{prog: prog, vc: pregelplus.Uint32Codec{}, mc: pregelplus.Uint32Codec{},
		value: func(d uint32) float64 { return float64(d) },
		summarise: func(dist []uint32, r *Result) {
			for _, d := range dist {
				if d != Infinity {
					r.Reached++
				}
			}
		}}
}

func bfs(prog core.Program[BFSState, uint32]) program[BFSState, uint32] {
	return program[BFSState, uint32]{prog: prog, vc: bfsCodec{}, mc: pregelplus.Uint32Codec{},
		value: func(s BFSState) float64 { return float64(s.Depth) },
		parent: func(s BFSState) *uint64 {
			if s.Parent == Infinity {
				return nil
			}
			p := uint64(s.Parent)
			return &p
		},
		summarise: func(states []BFSState, r *Result) {
			for _, s := range states {
				if s.Depth != Infinity {
					r.Reached++
				}
			}
		}}
}

func reach(prog core.Program[uint64, uint64]) program[uint64, uint64] {
	return program[uint64, uint64]{prog: prog, vc: uint64Codec{}, mc: uint64Codec{},
		value: func(m uint64) float64 { return float64(m) },
		summarise: func(masks []uint64, r *Result) {
			for _, m := range masks {
				if m != 0 {
					r.Reached++
				}
			}
		}}
}

func source(p Params) graph.VertexID { return graph.VertexID(*p.Source) }

// bfsCodec checkpoints a BFSState as two little-endian uint32s.
type bfsCodec struct{}

func (bfsCodec) Size() int { return 8 }
func (bfsCodec) Encode(buf []byte, v BFSState) {
	binary.LittleEndian.PutUint32(buf, v.Parent)
	binary.LittleEndian.PutUint32(buf[4:], v.Depth)
}
func (bfsCodec) Decode(buf []byte) BFSState {
	return BFSState{Parent: binary.LittleEndian.Uint32(buf), Depth: binary.LittleEndian.Uint32(buf[4:])}
}

// uint64Codec checkpoints a Reach64 mask, little-endian.
type uint64Codec struct{}

func (uint64Codec) Size() int                   { return 8 }
func (uint64Codec) Encode(buf []byte, m uint64) { binary.LittleEndian.PutUint64(buf, m) }
func (uint64Codec) Decode(buf []byte) uint64    { return binary.LittleEndian.Uint64(buf) }
