package ctxescape

import (
	"ipregel/internal/core"
)

// A handle passed down to a helper escapes where the helper stores or
// spawns it, and is reported there; the call chain above it is clean.

type app struct {
	saved *core.Context[int64, int64]
}

var shared = &app{}

// stash parks the context in a struct field.
func stash(a *app, ctx *core.Context[int64, int64]) {
	a.saved = ctx // want `stored into struct field saved`
}

// relay only forwards its ctx: the store is stash's finding.
func relay(a *app, ctx *core.Context[int64, int64]) {
	stash(a, ctx)
}

// watch captures its vertex handle in a spawned goroutine.
func watch(v core.Vertex[int64, int64]) {
	go func() {
		_ = v.ID() // want `captured by a goroutine closure`
	}()
}

// park takes any value and keeps it: once the handle is an interface
// value its type is gone, so the conversion is the finding.
var parked any

func park(x any) { parked = x }

// inspect uses its handle and lets it die with the frame: fine.
func inspect(ctx *core.Context[int64, int64]) int {
	return ctx.Superstep()
}

func computeViaHelpers(ctx *core.Context[int64, int64], v core.Vertex[int64, int64]) {
	relay(shared, ctx)
	watch(v)
	park(ctx)        // want `converted to an interface value`
	_ = inspect(ctx) // no escape anywhere in the chain: fine
}
