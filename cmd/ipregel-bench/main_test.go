package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig7", "fig8", "fig9", "table1", "table2", "mem-projection"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("list missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "table1", "-divisor", "4096", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Wikipedia") {
		t.Fatalf("table1 output:\n%s", sb.String())
	}
}

func TestRunWithCSV(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-exp", "fig7", "-divisor", "8192", "-quick", "-csv", dir, "-pagerank-rounds", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig7.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("no action accepted")
	}
	if err := run([]string{"-exp", "bogus"}, &sb); err == nil {
		t.Fatal("bogus experiment accepted")
	}
	if err := run([]string{"-badflag"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRemovedShardFlag: -shards went with the shard layer, and the
// sweep-wide -graph-backend and -direction overrides with the harness
// options they set, so passing any of them is the flag package's usage
// error, not a flag accepted and ignored.
func TestRemovedShardFlag(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-shards", "2"},
		{"-graph-backend", "mmap"},
		{"-direction", "pull"},
	} {
		var sb strings.Builder
		err := run([]string{"-exp", "table1", c.flag, c.value}, &sb)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+c.flag) {
			t.Fatalf("%s: err = %v, want the flag package's not-defined error", c.flag, err)
		}
	}
}
