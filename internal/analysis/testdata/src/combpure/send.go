package combpure

import (
	"ipregel/internal/core"
)

// A Send or Broadcast from a combine function delivers from inside
// delivery: re-entrant locking on the mutex and spinlock inboxes,
// unbounded retry amplification on the atomic one, and a race on the
// pull collector's owner-only write.

// pureMinLit is a well-behaved combiner.
var _ = core.Program[int, int32]{
	Combine: func(old *int32, msg int32) {
		if msg < *old {
			*old = msg
		}
	},
}

// A combiner closure that captures a Context and sends from it.
func leakyProgram(ctx *core.Context[int, int32]) core.Program[int, int32] {
	return core.Program[int, int32]{
		Combine: func(old *int32, msg int32) {
			ctx.Send(7, msg) // want `combine function calls Context\.Send`
			*old += msg
		},
	}
}

// A declared combiner that hides the send one call deep.
var _ = core.Program[int, int32]{
	Combine: combineIndirect,
}

var stashedCtx *core.Context[int, int32]

func combineIndirect(old *int32, msg int32) {
	forward(msg)
	*old += msg
}

func forward(msg int32) {
	var v core.Vertex[int, int32]
	stashedCtx.Broadcast(v, msg) // want `combine function calls Context\.Broadcast`
}

// An explicit CombineFunc conversion is a registration site too.
var _ = core.CombineFunc[int32](func(old *int32, msg int32) {
	stashedCtx.Send(0, msg) // want `combine function calls Context\.Send`
})

// So is a CombineFunc-typed declaration.
var _ core.CombineFunc[int32] = func(old *int32, msg int32) {
	stashedCtx.Send(1, msg) // want `combine function calls Context\.Send`
}

// Send from a non-combiner function is fine: the contract binds only
// delivery-time code.
func computeMaySend(ctx *core.Context[int, int32], v core.Vertex[int, int32]) {
	ctx.Broadcast(v, 2)
	ctx.VoteToHalt(v)
}
