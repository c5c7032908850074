package core

import "testing"

// SetSlotOrderCut replaces the frontier-order cut until t ends: 0 keeps
// every bypass superstep on the fill-ordered frontier list, and a cut
// above |V| runs every non-empty frontier in slot order.
func SetSlotOrderCut(t testing.TB, cut int) {
	old := slotOrderCut
	slotOrderCut = cut
	t.Cleanup(func() { slotOrderCut = old })
}

// InlinedCombine reports where e folds its program's combiner in the loop
// instead of calling it: in the push inbox's scatter, in the pull collect.
func InlinedCombine[V, M any](e *Engine[V, M]) (scatter, collect bool) {
	switch any(e.mb).(type) {
	case *sumInbox, *minInbox:
		scatter = true
	}
	return scatter, e.sumOut != nil
}
