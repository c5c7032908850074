package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGraphinfoSpec(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-graph", "rmat:8:4", "-hist"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"|V|=256", "binary size", "Gini", "histogram"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGraphinfoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-file", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "|V|=3") {
		t.Fatalf("unexpected output:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "base identifier: 0\n") {
		t.Fatalf("base-0 graph should report base identifier 0:\n%s", sb.String())
	}
}

func TestGraphinfoEdgeCut(t *testing.T) {
	var sb strings.Builder
	// A 20-wide grid: neighbours differ by 1 or 20 in identifier, neither
	// a multiple of 8, so modulo-hash over 8 workers cuts every edge.
	if err := run([]string{"-graph", "road:20:20", "-cut", "8"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "edge cut over 8 workers: hash 100.0%") {
		t.Fatalf("cut line missing or wrong:\n%s", out)
	}
}

func TestGraphinfoDiameter(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-graph", "ring:25", "-diameter", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "diameter (lower bound, 1 samples): 24") {
		t.Fatalf("diameter output:\n%s", sb.String())
	}
}

func TestGraphinfoErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("no input accepted")
	}
	if err := run([]string{"-file", filepath.Join(t.TempDir(), "missing.txt")}, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"-graph", "bogus"}, &sb); err == nil {
		t.Fatal("bogus spec accepted")
	}
}
