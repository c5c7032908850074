// Package analysis is ipregel-vet: a static-analysis suite enforcing the
// framework contracts the Go compiler cannot see. There is one analyzer
// per contract: Context and Vertex handles are slot views valid only
// inside the current Compute call (ctxescape), and combiners must be
// pure reductions (combpure). State shared across workers is typed
// atomic, so the compiler, not a lint rule, rejects its plain access;
// selection bypass's halt obligation (paper §4) is checked by the engine
// itself, which stops a run with ErrBypassViolation naming the vertex.
// Each analyzer checks one package at a time; combpure reads a callee's
// body in a sibling package through the loader. Config.CheckInvariants
// in internal/core is their runtime complement for what lint cannot
// prove.
//
// The Analyzer/Pass/Diagnostic shapes deliberately mirror
// golang.org/x/tools/go/analysis so the analyzers could be ported to a
// standard multichecker verbatim; the module stays dependency-free by
// re-implementing the thin driver layer on the standard library (see
// Loader).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: a name, a doc string, and a Run
// function producing diagnostics over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ipregel:ignore directives. It must be a valid identifier.
	Name string
	// Doc is the help text shown by `ipregel-vet help`.
	Doc string
	// Run executes the analysis on one package.
	Run func(*Pass) error
}

// A Pass connects one Analyzer run to one Target package.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset resolves the positions of every file the pass can see,
	// including dependency syntax obtained through dependency.
	Fset *token.FileSet
	// Files is the target package's syntax.
	Files []*ast.File
	// Pkg is the target's type-checked package.
	Pkg *types.Package
	// TypesInfo holds the target's type information.
	TypesInfo *types.Info
	// loader grants read access to dependency syntax.
	loader *Loader
	// diags collects the diagnostics reported so far.
	diags []Diagnostic
}

// dependency returns the loader's type-checked non-test view of another
// module package, nil when path is outside the module or does not load.
// Analyzers use it to follow a reference into a sibling package, such as
// a combiner's callee (combpure).
func (p *Pass) dependency(path string) *depPkg {
	if p.loader == nil || !p.loader.internal(path) {
		return nil
	}
	dep, err := p.loader.dep(path)
	if err != nil {
		return nil
	}
	return dep
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks findings silenced by an //ipregel:ignore
	// directive; ipregel-vet's text output drops them, its -json output
	// keeps them.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the ipregel-vet analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{CtxEscape, CombPure}
}

// RunAll executes the analyzers over one target and returns their
// diagnostics, sorted by position, with //ipregel:ignore suppressions
// marked: a suppressed finding stays in the result, marked Suppressed, so
// machine-readable consumers (-json) can audit every directive-silenced
// diagnostic. Malformed ignore directives (no analyzer name or no reason)
// and directives naming an analyzer outside All() are themselves
// reported, so a suppression is always a documented, auditable decision
// that can still silence something.
func RunAll(analyzers []*Analyzer, loader *Loader, target *Target) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      loader.Fset,
			Files:     target.Files,
			Pkg:       target.Types,
			TypesInfo: target.Info,
			loader:    loader,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", target.PkgPath, a.Name, err)
		}
		diags = append(diags, pass.diags...)
	}
	sup := collectSuppressions(loader.Fset, target.Files)
	for i := range diags {
		diags[i].Suppressed = sup.covers(diags[i])
	}
	diags = append(diags, sup.malformed...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ignoreDirective is the suppression marker: a comment of the form
//
//	//ipregel:ignore <analyzer> <reason...>
//
// on the flagged line or the line directly above it silences that
// analyzer there. The reason is mandatory, and the analyzer must be one
// of All(): an undocumented suppression, or one left behind by a retired
// analyzer, is reported as a finding of its own.
const ignoreDirective = "//ipregel:ignore"

type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

type suppressions struct {
	keys      map[suppressionKey]bool
	malformed []Diagnostic // reasonless or naming no analyzer of All()
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{keys: map[suppressionKey]bool{}}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				bad := func(msg string) {
					s.malformed = append(s.malformed, Diagnostic{Pos: pos, Analyzer: "ipregel-vet", Message: msg})
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad("malformed ignore directive: want //ipregel:ignore <analyzer> <reason>")
					continue
				}
				if !known[fields[0]] {
					bad(fmt.Sprintf("ignore directive names unknown analyzer %q: it suppresses nothing", fields[0]))
					continue
				}
				// Suppress on the directive's own line and the next line
				// (covering both trailing-comment and line-above styles).
				for _, line := range []int{pos.Line, pos.Line + 1} {
					s.keys[suppressionKey{file: pos.Filename, line: line, analyzer: fields[0]}] = true
				}
			}
		}
	}
	return s
}

func (s *suppressions) covers(d Diagnostic) bool {
	return s.keys[suppressionKey{file: d.Pos.Filename, line: d.Pos.Line, analyzer: d.Analyzer}]
}
