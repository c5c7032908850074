package main

import (
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end: its bypass program must
// halt every superstep, or the engine stops it with ErrBypassViolation.
func TestQuickstart(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vertex 1: rank", "vertex 3: max in-neighbour 5"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
}
