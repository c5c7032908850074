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
	for _, want := range []string{"fig7", "fig8", "fig9", "table1", "table2", "mem-projection", "shm-baseline"} {
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

// TestShardFlagValidation mirrors ipregel-run's check: -shards must be
// positive, and a sharded experiment runs normally.
func TestShardFlagValidation(t *testing.T) {
	cases := []struct {
		args    []string
		wantSub string
	}{
		{[]string{"-exp", "table1", "-shards", "0"}, "-shards must be at least 1"},
	}
	for _, c := range cases {
		var sb strings.Builder
		err := run(c.args, &sb)
		if err == nil {
			t.Fatalf("args %v: expected error", c.args)
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("args %v: error %q does not mention %q", c.args, err, c.wantSub)
		}
	}
	var sb strings.Builder
	if err := run([]string{"-exp", "table1", "-divisor", "4096", "-quick", "-shards", "2"}, &sb); err != nil {
		t.Fatalf("sharded experiment: %v\n%s", err, sb.String())
	}
}
