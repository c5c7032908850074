// Package jsonsrc is the golden-test input for ipregel-vet's -json
// output: one live ctxescape finding and one suppressed one, so the
// golden file pins the schema of both shapes (see main_test.go).
package jsonsrc

import "ipregel/internal/core"

var last *core.Context[int, int32]

func keep(ctx *core.Context[int, int32]) { last = ctx }

func audited(ctx *core.Context[int, int32]) {
	//ipregel:ignore ctxescape cleared before the superstep's barrier
	last = ctx
}
