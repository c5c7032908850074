package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture tests mirror golang.org/x/tools/go/analysis/analysistest:
// each analyzer has a directory under testdata/src/ whose files carry
// `// want` comments naming the diagnostics expected on that line, as
// regular expressions. A fixture fails if a want goes unmatched or a
// diagnostic goes unwanted, so the fixtures pin both the positives and
// the negatives of every analyzer.

// sharedLoader hands every fixture test the same Loader: the expensive
// part of a load is source-importing the standard library, and the
// memoized packages are fixture-independent.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	return NewLoader(root)
})

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func TestCtxEscapeFixture(t *testing.T)  { testFixture(t, CtxEscape, "ctxescape") }
func TestBypassHaltFixture(t *testing.T) { testFixture(t, BypassHalt, "bypasshalt") }
func TestCombPureFixture(t *testing.T)   { testFixture(t, CombPure, "combpure") }
func TestSuppressFixture(t *testing.T)   { testFixture(t, CtxEscape, "suppress") }

func testFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join("testdata", "src", fixture)
	targets, err := loader.LoadDir(dir, "fixture/"+fixture)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(targets) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}

	var diags []Diagnostic
	for _, target := range targets {
		ds, err := Run([]*Analyzer{a}, loader, target)
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, target.PkgPath, err)
		}
		diags = append(diags, ds...)
	}

	wants := collectWants(t, dir)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRx matches one expectation inside a `// want` comment: a
// double-quoted Go string or a backquoted raw string.
var wantRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path, err := filepath.Abs(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			tokens := wantRx.FindAllString(rest, -1)
			if len(tokens) == 0 {
				t.Fatalf("%s:%d: want comment with no string expectations", path, i+1)
			}
			for _, tok := range tokens {
				pat, err := strconv.Unquote(tok)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", path, i+1, tok, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, pat, err)
				}
				wants = append(wants, want{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}
