package main

import (
	"strings"
	"testing"
)

// TestShortestPath runs the example on a small road grid: every engine
// version must agree on every distance.
func TestShortestPath(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-rows", "20", "-cols", "20"}, &sb); err != nil {
		t.Fatal(err)
	}
	if want := "reached 400/400 vertices"; !strings.Contains(sb.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, sb.String())
	}
}
