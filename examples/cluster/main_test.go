package main

import (
	"strings"
	"testing"
)

// TestCluster runs the example on a small wiki stand-in: both frameworks
// must agree on every rank at every node count.
func TestCluster(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-divisor", "4096", "-rounds", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"iPregel (broadcast):", "Pregel+ 16 node(s)", "lead change"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
}
