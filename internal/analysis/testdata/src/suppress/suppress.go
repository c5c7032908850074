// Fixture for the //ipregel:ignore suppression mechanism, exercised
// through the ctxescape analyzer.
package suppress

import "ipregel/internal/core"

var last, prev, other *core.Context[int, int32]

func suppressedSameLine(ctx *core.Context[int, int32]) {
	last = ctx //ipregel:ignore ctxescape cleared before the superstep's barrier
}

func suppressedLineAbove(ctx *core.Context[int, int32]) {
	//ipregel:ignore ctxescape cleared before the superstep's barrier
	prev = ctx
}

func wrongAnalyzerName(ctx *core.Context[int, int32]) {
	//ipregel:ignore bypasshalt reason naming the wrong analyzer does not suppress
	other = ctx // want `stored into package variable other`
}
