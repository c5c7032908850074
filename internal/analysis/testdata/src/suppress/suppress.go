// Fixture for the //ipregel:ignore suppression mechanism, exercised
// through the nakedatomic analyzer.
package suppress

import "sync/atomic"

type flags struct {
	//ipregel:atomic
	set []uint32
}

func (f *flags) claim(i int) bool { return atomic.CompareAndSwapUint32(&f.set[i], 0, 1) }

func (f *flags) suppressedSameLine(i int) uint32 {
	return f.set[i] //ipregel:ignore nakedatomic read after every worker joined the barrier
}

func (f *flags) suppressedLineAbove(i int) uint32 {
	//ipregel:ignore nakedatomic read after every worker joined the barrier
	return f.set[i]
}

func (f *flags) wrongAnalyzerName(i int) uint32 {
	//ipregel:ignore ctxescape reason naming the wrong analyzer does not suppress
	return f.set[i] // want `element of set accessed without sync/atomic`
}
