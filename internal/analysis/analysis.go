// Package analysis is ipregel-vet: a static-analysis suite enforcing the
// framework contracts the Go compiler cannot see. iPregel's performance
// rests on preconditions stated in the paper and checked — if at all — at
// run time. There is one analyzer per contract: Context and Vertex
// handles are slot views valid only inside the current Compute call
// (ctxescape), selection bypass needs every vertex to vote to halt each
// superstep, §4 (bypasshalt), fields marked //ipregel:atomic (the pull
// transport's enrolment flags) tolerate no plain element access
// (nakedatomic), and combiners must be pure reductions (combpure). Each checks one
// package at a time; bypasshalt and combpure read a callee's body in a
// sibling package through the loader. Config.CheckInvariants in
// internal/core is their runtime complement for what lint cannot prove.
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
// Analyzers use it to follow a reference into a sibling package: a
// Program constructor (bypasshalt), a combiner's callee (combpure).
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
	// directive; Run drops them, RunAll keeps them for machine-readable
	// output.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the ipregel-vet analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{CtxEscape, BypassHalt, NakedAtomic, CombPure}
}

// Run executes the analyzers over one target and returns the surviving
// diagnostics, sorted by position, with //ipregel:ignore suppressions
// applied. Malformed ignore directives (no analyzer name or no reason)
// are themselves reported, so a suppression is always a documented,
// auditable decision.
func Run(analyzers []*Analyzer, loader *Loader, target *Target) ([]Diagnostic, error) {
	all, err := RunAll(analyzers, loader, target)
	if err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// RunAll is Run without the final filter: suppressed findings stay in the
// result, marked Suppressed, so machine-readable consumers (-json) can
// audit every directive-silenced diagnostic.
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
// analyzer there. The reason is mandatory — an undocumented suppression
// is reported as a finding of its own.
const ignoreDirective = "//ipregel:ignore"

type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

type suppressions struct {
	keys      map[suppressionKey]bool
	malformed []Diagnostic
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{keys: map[suppressionKey]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "ipregel-vet",
						Message:  "malformed ignore directive: want //ipregel:ignore <analyzer> <reason>",
					})
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
