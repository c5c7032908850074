package core

import (
	"fmt"
	"math"
)

// AggOp is a commutative, associative reduction over float64 used by
// named aggregators. Aggregators are the standard Pregel global-reduction
// mechanism: each superstep's contributions are folded per worker and
// merged at the barrier, and the result is visible to every vertex during
// the *next* superstep. The paper's engine fixes PageRank at 30
// iterations; aggregators enable the natural extension of running it to
// numerical convergence (see algorithms.PageRankConverged).
type AggOp int

const (
	// AggSum folds contributions with addition (identity 0).
	AggSum AggOp = iota
	// AggMin keeps the minimum (identity +Inf).
	AggMin
	// AggMax keeps the maximum (identity -Inf).
	AggMax
)

func (op AggOp) identity() float64 {
	switch op {
	case AggMin:
		return math.Inf(1)
	case AggMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

func (op AggOp) fold(a, b float64) float64 {
	switch op {
	case AggMin:
		if b < a {
			return b
		}
		return a
	case AggMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// Aggregator declares one named global reduction of a Program. During a
// superstep vertices contribute with Context.Aggregate; the merged value
// is readable superstep s+1 via Context.Aggregated.
type Aggregator struct {
	Name string
	Op   AggOp
}

// aggregators is the engine-side registry: fixed by the program's
// declarations, one partial slot per worker per aggregator, merged at the
// barrier.
type aggregators struct {
	// decl is the program's declaration list; its order is checkpoint
	// v2's aggregator order.
	decl  []Aggregator
	names map[string]int
	// partials[worker][agg]
	partials [][]float64
	// current[agg] holds the merged value from the previous superstep.
	current []float64
}

// newAggregators registers the program's declared aggregators, each
// seeded with its operator's identity (a Restored engine then overwrites
// current with the checkpointed barrier values).
func newAggregators(workers int, decl []Aggregator) (*aggregators, error) {
	a := &aggregators{decl: decl, names: make(map[string]int, len(decl)), partials: make([][]float64, workers)}
	for i, d := range decl {
		if _, dup := a.names[d.Name]; dup {
			return nil, fmt.Errorf("core: aggregator %q declared twice", d.Name)
		}
		a.names[d.Name] = i
		a.current = append(a.current, d.Op.identity())
	}
	for w := range a.partials {
		a.partials[w] = append([]float64(nil), a.current...)
	}
	return a, nil
}

func (a *aggregators) index(name string) int {
	i, ok := a.names[name]
	if !ok {
		panic(fmt.Sprintf("core: unknown aggregator %q (declare it in Program.Aggregators)", name))
	}
	return i
}

func (a *aggregators) contribute(worker, idx int, x float64) {
	a.partials[worker][idx] = a.decl[idx].Op.fold(a.partials[worker][idx], x)
}

// barrier merges the workers' partials into current and resets partials.
func (a *aggregators) barrier() {
	for i, d := range a.decl {
		v := d.Op.identity()
		for w := range a.partials {
			v = d.Op.fold(v, a.partials[w][i])
			a.partials[w][i] = d.Op.identity()
		}
		a.current[i] = v
	}
}

// Aggregate contributes x to the named aggregator for this superstep.
func (c *Context[V, M]) Aggregate(name string, x float64) {
	c.e.agg.contribute(c.worker, c.e.agg.index(name), x)
}

// Aggregated returns the named aggregator's merged value from the
// previous superstep (the operator's identity during superstep 0).
func (c *Context[V, M]) Aggregated(name string) float64 {
	return c.e.agg.current[c.e.agg.index(name)]
}
