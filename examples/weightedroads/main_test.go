package main

import (
	"strings"
	"testing"
)

// TestWeightedRoads runs the example on a small weighted grid: the
// DIMACS round trip must keep every weight, both push combiners must
// match Dijkstra, and the pull transport must refuse per-edge messages.
func TestWeightedRoads(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-rows", "20", "-cols", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	if want := "pull transport correctly rejected"; !strings.Contains(sb.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, sb.String())
	}
}
