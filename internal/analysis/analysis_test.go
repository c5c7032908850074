package analysis

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestMalformedIgnoreDirective pins the two-sided contract of a bad
// //ipregel:ignore, reasonless or naming an analyzer outside All(): the
// underlying diagnostic survives, and the directive itself becomes a
// finding. (This cannot use the want convention — the expectation sits
// on the directive's own comment line.)
func TestMalformedIgnoreDirective(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	targets, err := loader.LoadDir(filepath.Join("testdata", "src", "suppressbad"), "fixture/suppressbad")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(targets) != 1 {
		t.Fatalf("got %d targets, want 1", len(targets))
	}
	diags, err := runKept(CtxEscape, loader, targets[0])
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wants := []struct{ analyzer, message string }{
		{"ipregel-vet", "malformed ignore directive"},
		{"ctxescape", "stored into package variable saved"},
		{"ipregel-vet", `ignore directive names unknown analyzer "nakedatomic"`},
		{"ctxescape", "stored into package variable kept"},
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d (each directive and the finding it failed to suppress):\n%v", len(diags), len(wants), diags)
	}
	for i, w := range wants {
		if d := diags[i]; d.Analyzer != w.analyzer || !strings.Contains(d.Message, w.message) {
			t.Errorf("diagnostic %d = %s, want %s: …%s…", i, d, w.analyzer, w.message)
		}
	}
}

// TestAllAnalyzersNamed guards the multichecker surface: two analyzers,
// one per contract, distinct names, non-empty docs.
func TestAllAnalyzersNamed(t *testing.T) {
	all := All()
	if len(all) != 2 {
		t.Fatalf("All() returned %d analyzers, want 2", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestLoaderLoadsCore sanity-checks the stdlib-only loader against the
// real module: internal/core type-checks with its imports resolved
// recursively from source.
func TestLoaderLoadsCore(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	targets, err := loader.LoadDir(filepath.Join(loader.ModuleRoot, "internal", "core"), "")
	if err != nil {
		t.Fatalf("load internal/core: %v", err)
	}
	if len(targets) == 0 {
		t.Fatal("no targets for internal/core")
	}
	if got := targets[0].PkgPath; got != CorePath {
		t.Fatalf("primary package path = %q, want %q", got, CorePath)
	}
}

// TestLoaderHonorsBuildConstraints loads a package with a //go:build
// platform seam (graphio's mmap_unix.go / mmap_stub.go pair): exactly
// one side may type-check in, or every seamed declaration appears
// redeclared.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	if _, err := loader.LoadDir(filepath.Join(loader.ModuleRoot, "internal", "graphio"), ""); err != nil {
		t.Fatalf("load internal/graphio: %v", err)
	}
}

// TestBuildTagSatisfied pins the host tag set the loader evaluates
// //go:build expressions against.
func TestBuildTagSatisfied(t *testing.T) {
	cases := []struct {
		tag  string
		want bool
	}{
		{runtime.GOOS, true},
		{runtime.GOARCH, true},
		{"gc", true},
		{"go1.22", true},
		{"plan9", runtime.GOOS == "plan9"},
		{"purego", false},
	}
	for _, c := range cases {
		if got := buildTagSatisfied(c.tag); got != c.want {
			t.Errorf("buildTagSatisfied(%q) = %v, want %v", c.tag, got, c.want)
		}
	}
	if runtime.GOOS == "linux" && !buildTagSatisfied("unix") {
		t.Error(`buildTagSatisfied("unix") = false on linux`)
	}
}
