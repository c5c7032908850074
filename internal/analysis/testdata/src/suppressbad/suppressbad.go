// Fixture for malformed //ipregel:ignore directives: a directive without
// a reason suppresses nothing and is reported as a finding of its own.
// (Checked programmatically in TestMalformedIgnoreDirective — the want
// convention cannot annotate the directive's own line.)
package suppressbad

type flags struct {
	//ipregel:atomic
	set []uint32
}

func (f *flags) missingReason(i int) uint32 {
	//ipregel:ignore nakedatomic
	return f.set[i]
}
