// Command ipregel-vet is the module's static-analysis driver: it runs the
// internal/analysis suite over packages of this module, printing
// go-vet-style diagnostics and exiting non-zero when any survive
// suppression. Run `ipregel-vet help` for the analyzer roster — it is
// generated from analysis.All(), so the list never goes stale.
//
// Usage:
//
//	ipregel-vet [-json] [package-dir|dir/...]...
//	ipregel-vet help
//
// With no arguments it checks ./... from the current directory. Findings
// can be silenced in source with
//
//	//ipregel:ignore <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory, and a
// directive naming no analyzer of the roster is itself reported.
//
// With -json the driver emits a JSON array instead of text. Each element
// has the shape
//
//	{"analyzer": "...", "pos": {"file": "...", "line": N, "col": N},
//	 "message": "...", "suppressed": false}
//
// where file is module-root-relative with forward slashes (stable across
// machines). Suppressed findings are included with "suppressed": true so
// tooling can audit the ignore inventory; only unsuppressed findings
// affect the exit status.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"ipregel/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("ipregel-vet", flag.ContinueOnError)
	fs.SetOutput(errw)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array (includes suppressed findings)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 1 && patterns[0] == "help" {
		printHelp(out)
		return 0
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errw, "ipregel-vet:", err)
		return 2
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(errw, "ipregel-vet:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(errw, "ipregel-vet:", err)
		return 2
	}

	dirs, err := expandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(errw, "ipregel-vet:", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(errw, "ipregel-vet: no packages match", strings.Join(patterns, " "))
		return 2
	}

	var all []analysis.Diagnostic
	for _, dir := range dirs {
		targets, err := loader.LoadDir(dir, "")
		if err != nil {
			fmt.Fprintf(errw, "ipregel-vet: %s: %v\n", dir, err)
			return 2
		}
		for _, target := range targets {
			diags, err := analysis.RunAll(analysis.All(), loader, target)
			if err != nil {
				fmt.Fprintf(errw, "ipregel-vet: %v\n", err)
				return 2
			}
			all = append(all, diags...)
		}
	}

	found := 0
	for _, d := range all {
		if !d.Suppressed {
			found++
		}
	}

	if *jsonOut {
		if err := writeJSON(out, all, root); err != nil {
			fmt.Fprintln(errw, "ipregel-vet:", err)
			return 2
		}
	} else {
		for _, d := range all {
			if d.Suppressed {
				continue
			}
			fmt.Fprintf(out, "%s\n", diagString(d, cwd))
		}
	}
	if found > 0 {
		return 1
	}
	return 0
}

// jsonDiag is the stable wire shape of one finding. Fields are ordered
// and named for tooling: changing them breaks the golden test and the
// GitHub Actions problem matcher in .github/problem-matchers/.
type jsonDiag struct {
	Analyzer string  `json:"analyzer"`
	Pos      jsonPos `json:"pos"`
	Message  string  `json:"message"`
	// Suppressed marks findings silenced by an //ipregel:ignore
	// directive; they are reported for auditability but do not affect
	// the exit status.
	Suppressed bool `json:"suppressed"`
}

type jsonPos struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// writeJSON renders diagnostics as an indented JSON array with file
// paths relative to the module root and forward slashes, so output is
// byte-stable across invocation directories and operating systems. An
// empty result is the literal `[]`, never `null`.
func writeJSON(out io.Writer, diags []analysis.Diagnostic, root string) error {
	jds := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		jds = append(jds, jsonDiag{
			Analyzer:   d.Analyzer,
			Pos:        jsonPos{File: file, Line: d.Pos.Line, Col: d.Pos.Column},
			Message:    d.Message,
			Suppressed: d.Suppressed,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "\t")
	return enc.Encode(jds)
}

// diagString renders a diagnostic with its file path relative to the
// invocation directory when possible, matching go vet's output shape.
func diagString(d analysis.Diagnostic, cwd string) string {
	if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d.String()
}

func printHelp(out io.Writer) {
	fmt.Fprintln(out, "ipregel-vet checks iPregel framework contracts the compiler cannot see.")
	fmt.Fprintln(out)
	// One entry per analyzer, taken from the live registry so the help
	// text cannot drift from the suite. Continuation lines are indented:
	// only entry headers sit at column 0, which main_test.go relies on.
	for _, a := range analysis.All() {
		summary, body, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(out, "%s: %s\n", a.Name, summary)
		for _, line := range strings.Split(body, "\n") {
			if line == "" {
				fmt.Fprintln(out)
			} else {
				fmt.Fprintf(out, "  %s\n", line)
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "Suppress a finding with `//ipregel:ignore <analyzer> <reason>` on the")
	fmt.Fprintln(out, "flagged line or the line above. The reason is mandatory, and a directive")
	fmt.Fprintln(out, "naming an analyzer not listed above is itself reported.")
}

func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expandPatterns resolves package patterns to package directories: a
// trailing /... walks the tree (skipping testdata, vendor, and hidden
// directories), anything else names one directory.
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		base, recursive := strings.CutSuffix(p, "/...")
		if base == "" || base == "." {
			base = "."
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, fmt.Errorf("no Go files in %s", base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}
