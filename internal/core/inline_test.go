package core_test

import (
	"math"
	"reflect"
	"testing"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

// Combiners with the body of core.Min or core.Sum that are other
// functions: a func literal, a named wrapper and a method value. The
// engine must call them per delivery.
var (
	literalMin core.CombineFunc[uint32] = func(old *uint32, new uint32) {
		if new < *old {
			*old = new
		}
	}
	literalSum core.CombineFunc[float64] = func(old *float64, new float64) { *old += new }
)

func wrapMin(old *uint32, new uint32)   { core.Min(old, new) }
func wrapSum(old *float64, new float64) { core.Sum(old, new) }

type combiners struct{}

func (combiners) min(old *uint32, new uint32)   { core.Min(old, new) }
func (combiners) sum(old *float64, new float64) { core.Sum(old, new) }

// inlineRun runs prog on g under cfg and returns the values, the report's
// fingerprint, and whether the engine folded the combiner in its push
// scatter or its pull collect.
func inlineRun[V, M any](t *testing.T, g *graph.Graph, cfg core.Config, prog core.Program[V, M]) (vals []V, fp string, scatter, collect bool) {
	t.Helper()
	e, err := core.New(g, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	scatter, collect = core.InlinedCombine(e)
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e.ValuesDense(), rep.Fingerprint(), scatter, collect
}

// sameValues compares float64 values bit for bit and anything else with
// reflect.DeepEqual.
func sameValues[V any](a, b []V) bool {
	if fa, ok := any(a).([]float64); ok {
		fb := any(b).([]float64)
		if len(fa) != len(fb) {
			return false
		}
		for i := range fa {
			if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// checkFold runs prog as given, then with each of others as its combiner.
// The first run must fold the combiner in the loop named by where
// ("scatter" or "collect"), every other run must call it, and all must
// agree bit for bit on values and fingerprint.
func checkFold[V, M any](t *testing.T, g *graph.Graph, cfg core.Config, prog core.Program[V, M], where string, others map[string]core.CombineFunc[M]) {
	t.Helper()
	vals, fp, scatter, collect := inlineRun(t, g, cfg, prog)
	if where == "scatter" && !scatter || where == "collect" && !collect {
		t.Fatalf("%s/%d threads: the recognised combiner is not folded in the %s loop", cfg.VersionName(), cfg.Threads, where)
	}
	for name, combine := range others {
		prog.Combine = combine
		ovals, ofp, oscatter, ocollect := inlineRun(t, g, cfg, prog)
		if oscatter || ocollect {
			t.Fatalf("%s: %s was folded into the loop; only core.Min and core.Sum themselves are", cfg.VersionName(), name)
		}
		if !sameValues(vals, ovals) {
			t.Fatalf("%s: %s computes other values than the folded combiner", cfg.VersionName(), name)
		}
		if fp != ofp {
			t.Fatalf("%s: %s fingerprint differs:\n%s\nwant\n%s", cfg.VersionName(), name, ofp, fp)
		}
	}
}

// TestInlineCombinerRecognition: New folds core.Min and core.Sum by
// function identity, so a literal with the same body, a named wrapper and
// a method value all keep the called loop, with identical results. Min
// is folded with and without bypass.
func TestInlineCombinerRecognition(t *testing.T) {
	g := gen.RMATN(1000, 8000, 11, 1, true)
	src := maxOutDegree(g)
	mins := map[string]core.CombineFunc[uint32]{"literal": literalMin, "wrapper": wrapMin, "method value": combiners{}.min}
	for _, bypass := range []bool{true, false} {
		cfg := core.Config{Threads: 1, SelectionBypass: bypass, CheckInvariants: true}
		checkFold(t, g, cfg, algorithms.HashminProgram(), "scatter", mins)
		checkFold(t, g, cfg, algorithms.SSSPProgram(src), "scatter", mins)
		checkFold(t, g, cfg, algorithms.BFSProgram(src), "scatter", mins)
	}
	sums := map[string]core.CombineFunc[float64]{"literal": literalSum, "wrapper": wrapSum, "method value": combiners{}.sum}
	checkFold(t, g, core.Config{Threads: 1, CheckInvariants: true}, algorithms.PageRankProgram(10), "scatter", sums)
	checkFold(t, g, core.Config{Combiner: core.CombinerSpin, Direction: core.DirectionPull, Threads: 1, CheckInvariants: true}, algorithms.PageRankProgram(10), "collect", sums)
}

// TestInlineCombinerParity: every path the fold serves — PageRank push at
// one thread, PageRank pull at one, two and four threads on the plain
// inbox and (adaptive) the spinlock one, Hashmin, SSSP and BFS at one
// thread with and without bypass — computes bit-identical values and the
// same fingerprint whether the engine folds
// core.Min or core.Sum in the loop or calls a literal with its body, on
// the flat and compressed backends, with the barrier audits on.
func TestInlineCombinerParity(t *testing.T) {
	g := gen.RMATN(2000, 16000, 7, 1, true)
	cg, err := g.Compress()
	if err != nil {
		t.Fatal(err)
	}
	src := maxOutDegree(g)
	minLit := map[string]core.CombineFunc[uint32]{"literal": literalMin}
	sumLit := map[string]core.CombineFunc[float64]{"literal": literalSum}
	for _, backend := range []struct {
		name string
		g    *graph.Graph
	}{{"flat", g}, {"compressed", cg}} {
		t.Run(backend.name, func(t *testing.T) {
			g := backend.g
			checkFold(t, g, core.Config{Threads: 1, CheckInvariants: true}, algorithms.PageRankProgram(10), "scatter", sumLit)
			for _, threads := range []int{1, 2, 4} {
				// Adaptive pulls every PageRank superstep, over the spinlock
				// inbox from two threads.
				for _, cfg := range []core.Config{{Direction: core.DirectionPull}, {Combiner: core.CombinerSpin, Direction: core.DirectionAdaptive}} {
					cfg.Threads, cfg.CheckInvariants = threads, true
					checkFold(t, g, cfg, algorithms.PageRankProgram(10), "collect", sumLit)
				}
			}
			for _, bypass := range []bool{true, false} {
				cfg := core.Config{Threads: 1, SelectionBypass: bypass, CheckInvariants: true}
				checkFold(t, g, cfg, algorithms.HashminProgram(), "scatter", minLit)
				checkFold(t, g, cfg, algorithms.SSSPProgram(src), "scatter", minLit)
				checkFold(t, g, cfg, algorithms.BFSProgram(src), "scatter", minLit)
			}
		})
	}
}
