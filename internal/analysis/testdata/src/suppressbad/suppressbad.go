// Fixture for bad //ipregel:ignore directives: a directive without a
// reason, or naming an analyzer the suite does not have (here
// nakedatomic, a retired one), suppresses nothing and is reported as a
// finding of its own. (Checked programmatically in TestMalformedIgnoreDirective —
// the want convention cannot annotate the directive's own line.)
package suppressbad

import "ipregel/internal/core"

var saved, kept *core.Context[int, int32]

func missingReason(ctx *core.Context[int, int32]) {
	//ipregel:ignore ctxescape
	saved = ctx
}

func unknownAnalyzer(ctx *core.Context[int, int32]) {
	//ipregel:ignore nakedatomic the analyzer this names is not in the suite
	kept = ctx
}
