package combpure

import "ipregel/internal/core"

// impureGenericMin and sendingGenericMin are registered as explicit
// instantiations, index expressions rather than names: they must be
// checked all the same.
func impureGenericMin[T int64 | uint32](old *T, m T) {
	if m < *old {
		*old = m
	}
	totalCombines++ // want `combine function writes package variable totalCombines`
}

var _ = core.Program[int64, int64]{Combine: impureGenericMin[int64]}

func sendingGenericMin[T int32 | uint32](old *T, msg T) {
	if msg < *old {
		*old = msg
	}
	stashedCtx.Send(2, int32(msg)) // want `combine function calls Context\.Send`
}

var _ = core.Program[int, int32]{Combine: sendingGenericMin[int32]}
