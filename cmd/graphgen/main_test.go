package main

import (
	"path/filepath"
	"strings"
	"testing"

	"ipregel/internal/graphio"
)

func TestGraphgenWritesAllFormats(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"g.txt", "g.gr", "g.tsv", "g.bin", "g.gr.gz"} {
		path := filepath.Join(dir, name)
		var sb strings.Builder
		if err := run([]string{"-spec", "ring:20", "-o", path}, &sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(sb.String(), "wrote") {
			t.Fatalf("%s: no confirmation: %s", name, sb.String())
		}
		g, err := graphio.ReadFile(path, graphio.Options{})
		if err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		if g.N() != 20 || g.M() != 20 {
			t.Fatalf("%s: reloaded N=%d M=%d", name, g.N(), g.M())
		}
	}
}

func TestGraphgenWeightedRoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.gr")
	var sb strings.Builder
	if err := run([]string{"-spec", "wroad:5:5", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	g, err := graphio.ReadFile(path, graphio.Options{KeepWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasWeights() {
		t.Fatal("weights lost")
	}
}

func TestGraphgenErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-spec", "ring:5"}, &sb); err == nil {
		t.Fatal("missing -o accepted")
	}
	if err := run([]string{"-spec", "bogus", "-o", filepath.Join(t.TempDir(), "x.txt")}, &sb); err == nil {
		t.Fatal("bogus spec accepted")
	}
	// wiki at this divisor has no vertices for its 8 edges: refused, not
	// drawn forever.
	if err := run([]string{"-spec", "wiki", "-divisor", "20000000", "-o", filepath.Join(t.TempDir(), "x.txt")}, &sb); err == nil {
		t.Fatal("wiki with no vertices for its edges accepted")
	}
	// wroad is graphgen's own spec; its sizes get gen's check too.
	if err := run([]string{"-spec", "wroad:-1:5", "-o", filepath.Join(t.TempDir(), "x.txt")}, &sb); err == nil {
		t.Fatal("wroad with a negative size accepted")
	}
	if err := run([]string{"-badflag"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-spec", "ring:5", "-o", "/nonexistent-dir/x.txt"}, &sb); err == nil {
		t.Fatal("unwritable path accepted")
	}
}
