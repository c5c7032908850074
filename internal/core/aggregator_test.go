package core

import (
	"math"
	"strings"
	"testing"
)

// aggProbe runs for `steps` supersteps; every vertex contributes its
// identifier to three aggregators each superstep and records what it read
// from the previous superstep.
func aggProbe(t *testing.T, threads int) {
	t.Helper()
	g := ringGraph(10, 0)
	var readSum, readMin, readMax float64
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			ctx.Aggregate("sum", float64(v.ID()))
			ctx.Aggregate("min", float64(v.ID()))
			ctx.Aggregate("max", float64(v.ID()))
			if ctx.Superstep() == 1 && v.ID() == 0 {
				readSum = ctx.Aggregated("sum")
				readMin = ctx.Aggregated("min")
				readMax = ctx.Aggregated("max")
			}
			if ctx.Superstep() < 1 {
				ctx.Broadcast(v, 1)
			} else {
				var m uint32
				ctx.NextMessage(v, &m)
				ctx.VoteToHalt(v)
			}
		},
		Aggregators: []Aggregator{{"sum", AggSum}, {"min", AggMin}, {"max", AggMax}},
	}
	if _, _, err := Run(g, Config{Threads: threads}, prog); err != nil {
		t.Fatal(err)
	}
	if readSum != 45 { // 0+1+...+9
		t.Fatalf("sum aggregator = %v, want 45", readSum)
	}
	if readMin != 0 || readMax != 9 {
		t.Fatalf("min/max = %v/%v, want 0/9", readMin, readMax)
	}
}

func TestAggregatorsSingleThread(t *testing.T) { aggProbe(t, 1) }
func TestAggregatorsParallel(t *testing.T)     { aggProbe(t, 4) }

func TestAggregatorIdentities(t *testing.T) {
	if AggSum.identity() != 0 {
		t.Fatal("sum identity")
	}
	if !math.IsInf(AggMin.identity(), 1) || !math.IsInf(AggMax.identity(), -1) {
		t.Fatal("min/max identities")
	}
}

func TestAggregatedIdentityAtSuperstepZero(t *testing.T) {
	g := ringGraph(4, 0)
	var at0 float64
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.IsFirstSuperstep() && v.ID() == 0 {
				at0 = ctx.Aggregated("acc")
			}
			ctx.VoteToHalt(v)
		},
		Aggregators: []Aggregator{{"acc", AggSum}},
	}
	if _, _, err := Run(g, Config{Threads: 1}, prog); err != nil {
		t.Fatal(err)
	}
	if at0 != 0 {
		t.Fatalf("superstep-0 aggregated = %v, want identity 0", at0)
	}
}

func TestAggregatorErrors(t *testing.T) {
	g := ringGraph(4, 0)
	prog := counterProgram(0)
	prog.Aggregators = []Aggregator{{"a", AggSum}, {"b", AggMin}, {"a", AggMax}}
	if _, err := New(g, Config{}, prog); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("duplicate aggregator declaration: want an error naming it, got %v", err)
	}
}

func TestUnknownAggregatorIsContainedPanic(t *testing.T) {
	g := ringGraph(4, 0)
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			ctx.Aggregate("never-registered", 1)
		},
	}
	_, _, err := Run(g, Config{Threads: 2}, prog)
	if err == nil || !strings.Contains(err.Error(), "never-registered") {
		t.Fatalf("want contained panic mentioning the aggregator, got %v", err)
	}
}

func TestComputePanicBecomesError(t *testing.T) {
	g := ringGraph(16, 0)
	for _, threads := range []int{1, 4} {
		prog := Program[uint32, uint32]{
			Combine: func(old *uint32, new uint32) { *old += new },
			Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
				if v.ID() == 7 {
					panic("boom at vertex 7")
				}
				ctx.VoteToHalt(v)
			},
		}
		_, _, err := Run(g, Config{Threads: threads}, prog)
		if err == nil || !strings.Contains(err.Error(), "boom at vertex 7") {
			t.Fatalf("threads=%d: want contained panic, got %v", threads, err)
		}
	}
}
