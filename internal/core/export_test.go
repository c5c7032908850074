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
