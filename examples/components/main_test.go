package main

import (
	"strings"
	"testing"
)

// TestComponents runs the example on a small RMAT graph: every engine
// version must finish Hashmin, the bypass ones included.
func TestComponents(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "9"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"components (by out-edge min-propagation):", "superstep  1:"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
}
