package ipregel_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose file, package and section
// references TestDocReferences keeps honest.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "ROADMAP.md"}

var (
	backtickSpan = regexp.MustCompile("`([^`\n]+)`")
	goFileToken  = regexp.MustCompile(`^[A-Za-z0-9_./-]+\.go$`)
	goLineToken  = regexp.MustCompile(`^([A-Za-z0-9_./-]+\.go):(\d+)(?:[–-](\d+))?$`)
	pkgDirToken  = regexp.MustCompile(`^(internal|cmd)/[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)*/?$`)
	designRef    = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+(?:\.\d+)?[a-z]?)`)
	designHead   = regexp.MustCompile(`^#+ (\d+(?:\.\d+)?[a-z]?)\.? `)
	pkgIdent     = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
)

// TestDocReferences fails on a stale reference in the checked documents:
// a backticked Go file name that matches no file in the repository (by
// path suffix), a backticked `file.go:N` (or `file.go:N–M`) that no
// such file is N (M) lines long enough to hold, a backticked
// internal/<pkg> or cmd/<name> path that is
// not a directory, a backticked <pkg>.<Ident> whose internal/<pkg>
// declares no top-level Ident (only the first identifier after the
// package is checked, and only for a capitalised one), or a "DESIGN.md
// §N[.M]" reference — there or in any Go comment — that names no
// DESIGN.md heading.
func TestDocReferences(t *testing.T) {
	var files []string
	var goFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		files = append(files, path)
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, line := range strings.Split(string(design), "\n") {
		if m := designHead.FindStringSubmatch(line); m != nil {
			sections[m[1]] = true
		}
	}
	checkSections := func(path string, lines []string) {
		for i, line := range lines {
			for _, m := range designRef.FindAllStringSubmatch(line, -1) {
				if !sections[m[1]] {
					t.Errorf("%s:%d: %q names no DESIGN.md heading", path, i+1, m[0])
				}
			}
		}
	}

	pkgDecls := map[string]map[string]bool{} // internal/<pkg> → its top-level names
	for _, doc := range checkedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(text), "\n")
		checkSections(doc, lines)
		for i, line := range lines {
			for _, m := range backtickSpan.FindAllStringSubmatch(line, -1) {
				tok := strings.TrimPrefix(m[1], "./")
				switch {
				case goFileToken.MatchString(tok):
					if !hasPathSuffix(files, tok) {
						t.Errorf("%s:%d: `%s` names no file in the repository", doc, i+1, m[1])
					}
				case goLineToken.MatchString(tok):
					lm := goLineToken.FindStringSubmatch(tok)
					last, _ := strconv.Atoi(lm[2])
					if lm[3] != "" {
						last, _ = strconv.Atoi(lm[3])
					}
					if longest := longestSuffixMatch(t, files, lm[1]); longest < last {
						t.Errorf("%s:%d: `%s`: no %s in the repository has %d lines (longest: %d)", doc, i+1, m[1], lm[1], last, longest)
					}
				case pkgDirToken.MatchString(tok):
					dir := strings.TrimSuffix(strings.TrimSuffix(tok, "/..."), "/")
					if st, err := os.Stat(dir); err != nil || !st.IsDir() {
						t.Errorf("%s:%d: `%s` is not a directory", doc, i+1, m[1])
					}
				}
				if pm := pkgIdent.FindStringSubmatch(tok); pm != nil {
					decls, ok := pkgDecls[pm[1]]
					if !ok {
						decls = topLevel(t, pm[1])
						pkgDecls[pm[1]] = decls
					}
					if decls != nil && !decls[pm[2]] {
						t.Errorf("%s:%d: `%s`: internal/%s declares no %s", doc, i+1, m[1], pm[1], pm[2])
					}
				}
			}
		}
	}

	for _, path := range goFiles {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var comments []string
		for _, line := range strings.Split(string(text), "\n") {
			if _, c, ok := strings.Cut(line, "//"); ok {
				comments = append(comments, c)
			} else {
				comments = append(comments, "")
			}
		}
		checkSections(path, comments)
	}
}

// topLevel returns the top-level identifiers the non-test files of
// internal/<pkg> declare, or nil when there is no such directory.
func topLevel(t *testing.T, pkg string) map[string]bool {
	dir := filepath.Join("internal", pkg)
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						decls[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							decls[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								decls[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return decls
}

// longestSuffixMatch returns the line count of the longest file that is
// name or ends in "/"+name, or 0 when there is none.
func longestSuffixMatch(t *testing.T, files []string, name string) int {
	longest := 0
	for _, f := range files {
		if f == name || strings.HasSuffix(f, "/"+name) {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			longest = max(longest, strings.Count(string(text), "\n"))
		}
	}
	return longest
}

// hasPathSuffix reports whether some file is name or ends in "/"+name.
func hasPathSuffix(files []string, name string) bool {
	for _, f := range files {
		if f == name || strings.HasSuffix(f, "/"+name) {
			return true
		}
	}
	return false
}
