package sendphase

import "ipregel/internal/core"

// sendingGenericMin is registered as an explicit instantiation, an index
// expression rather than a name: it must be checked all the same.
func sendingGenericMin[T int32 | uint32](old *T, msg T) {
	if msg < *old {
		*old = msg
	}
	stashedCtx.Send(2, int32(msg)) // want `Send called from a combine function`
}

var _ = core.Program[int, int32]{Combine: sendingGenericMin[int32]}
