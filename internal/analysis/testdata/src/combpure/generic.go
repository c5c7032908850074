package combpure

import "ipregel/internal/core"

// impureGenericMin is registered as an explicit instantiation, an index
// expression rather than a name: it must be checked all the same.
func impureGenericMin[T int64 | uint32](old *T, m T) {
	if m < *old {
		*old = m
	}
	totalCombines++ // want `combine function writes package variable totalCombines`
}

var _ = core.Program[int64, int64]{Combine: impureGenericMin[int64]}
