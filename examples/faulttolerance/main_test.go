package main

import (
	"strings"
	"testing"
)

// TestFaultTolerance runs the example on a small road grid: the run must
// recover from both injected faults and match the uninterrupted run.
func TestFaultTolerance(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-rows", "16", "-cols", "16", "-every", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"recoveries: 2", "recovered result identical to the uninterrupted run"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
}
