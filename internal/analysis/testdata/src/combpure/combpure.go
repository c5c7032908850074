// Fixture for the combpure analyzer: combiner hooks must be
// deterministic pure reductions of their two arguments — no sends (see
// send.go), no writes to captured or package-level state, no map ranges,
// no time/rand — through any chain of calls.
package combpure

import (
	"time"

	"ipregel/internal/core"
)

var totalCombines int

// impureMin is a correct min-combiner except for the package-counter
// side effect.
func impureMin(old *int64, m int64) {
	if m < *old {
		*old = m
	}
	totalCombines++ // want `combine function writes package variable totalCombines`
}

// tick hides its impurity one call deep: the cross-function true
// positive.
func tick(old *int64, m int64) {
	helperTick(old, m)
}

func helperTick(old *int64, m int64) {
	_ = time.Now() // want `combine function calls time\.Now`
	*old += m
}

// pureSum is the contract-conforming shape: mutates only *old.
func pureSum(old *int64, m int64) {
	*old += m
}

var (
	_ = core.Program[int64, int64]{Combine: impureMin}
	_ = core.CombineFunc[int64](tick)
	_ = core.CombineFunc[int64](pureSum)
)

// registerLit registers a literal combiner that writes a captured local.
func registerLit() core.Program[int64, int64] {
	seen := 0
	return core.Program[int64, int64]{
		Combine: func(old *int64, m int64) {
			seen++ // want `combine function writes captured variable seen`
			*old += m
		},
	}
}

var weights = map[string]int64{"a": 1}

// mapRanger's iteration-order nondeterminism is acknowledged and
// suppressed with a reason.
func mapRanger(old *int64, m int64) {
	//ipregel:ignore combpure single-entry map, iteration order is immaterial
	for _, w := range weights {
		*old += w
	}
	_ = m
}

var _ = core.CombineFunc[int64](mapRanger)
