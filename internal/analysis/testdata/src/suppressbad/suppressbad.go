// Fixture for malformed //ipregel:ignore directives: a directive without
// a reason suppresses nothing and is reported as a finding of its own.
// (Checked programmatically in TestMalformedIgnoreDirective — the want
// convention cannot annotate the directive's own line.)
package suppressbad

import "ipregel/internal/core"

var saved *core.Context[int, int32]

func missingReason(ctx *core.Context[int, int32]) {
	//ipregel:ignore ctxescape
	saved = ctx
}
