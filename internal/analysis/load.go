package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved recursively from
// source, standard-library imports through go/importer's source importer
// (which type-checks GOROOT sources and therefore works offline). It is
// the stand-in for golang.org/x/tools/go/packages, which this module
// deliberately does not depend on.
//
// A Loader memoizes dependency packages (compiled from their non-test
// files, matching the go build graph) and retains their syntax trees and
// type information, so an analyzer can follow a reference into another
// package of the module, as combpure does into a combiner's callees.
type Loader struct {
	// Fset is the file set shared by every package the loader touches;
	// all diagnostic positions resolve through it.
	Fset *token.FileSet
	// ModuleRoot is the absolute directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	std  types.Importer
	pkgs map[string]*depPkg

	// base and augmented are set on the throwaway sub-loader LoadDir
	// builds for an external test package: deps that do not
	// (transitively) import the test-augmented package are shared from
	// base, preserving type identity with the primary target; deps that
	// do are re-checked so they bind to the augmented view.
	base      *Loader
	augmented string
}

// depPkg is one package's syntax and type information: a memoized
// dependency (non-test files only), or a pass's own target where an
// analyzer reads both alike.
type depPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
	err   error
}

// Target is one type-checked package ready for analysis, including its
// test files (in-package test files join the primary target; external
// _test packages become their own target).
type Target struct {
	// PkgPath is the import path ("ipregel/internal/core", with a
	// "_test" suffix for external test packages).
	PkgPath string
	// Dir is the directory the files came from.
	Dir string
	// Files are the parsed syntax trees, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type information for Files.
	Info *types.Info
}

// NewLoader builds a loader for the module rooted at moduleRoot, reading
// the module path from its go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: loader needs a module root: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: abs,
		ModulePath: modPath,
		pkgs:       map[string]*depPkg{},
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else falls through to the stdlib source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.internal(path) {
		p, err := l.dep(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) internal(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

func (l *Loader) dirOf(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// dep loads (and memoizes) a module-internal package from its non-test
// files, the view other packages import.
func (l *Loader) dep(path string) (*depPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, p.err
	}
	if l.base != nil {
		// Sub-loader: reuse the parent's view unless this dependency
		// reaches the augmented package, in which case it must be
		// re-checked here so it binds to the augmented view instead.
		if p, err := l.base.dep(path); err == nil && !importsPkg(p.types, l.augmented) {
			l.pkgs[path] = p
			return p, nil
		}
	}

	p := &depPkg{}
	l.pkgs[path] = p // pre-register to fail fast on import cycles
	p.err = fmt.Errorf("analysis: import cycle through %q", path)

	files, err := l.parseDir(l.dirOf(path), func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		p.err = err
		return p, err
	}
	if len(files) == 0 {
		p.err = fmt.Errorf("analysis: no Go files for %q in %s", path, l.dirOf(path))
		return p, p.err
	}
	p.files = files
	p.info = newInfo()
	p.types, p.err = l.check(path, files, p.info)
	return p, p.err
}

// LoadDir parses and type-checks the package in dir as an analysis
// target: the primary package includes in-package test files, and an
// external _test package (if any) is returned as a second target whose
// import of the primary resolves to the test-augmented package.
// pkgPath optionally overrides the import path derived from the
// directory's position in the module (used for testdata fixtures, which
// live outside the module's package tree).
func (l *Loader) LoadDir(dir string, pkgPath string) ([]*Target, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkgPath == "" {
		rel, err := filepath.Rel(l.ModuleRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
		}
		pkgPath = l.ModulePath
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
	}

	all, err := l.parseDir(abs, func(string) bool { return true })
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, nil
	}

	// Split by package clause: the primary package (non-test + in-package
	// test files) and the external test package.
	var primary, external []*ast.File
	for _, f := range all {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			primary = append(primary, f)
		}
	}

	var out []*Target
	var primaryTypes *types.Package
	var primaryInfo *types.Info
	if len(primary) > 0 {
		primaryInfo = newInfo()
		tpkg, err := l.check(pkgPath, primary, primaryInfo)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkgPath, err)
		}
		primaryTypes = tpkg
		out = append(out, &Target{PkgPath: pkgPath, Dir: abs, Files: primary, Types: tpkg, Info: primaryInfo})
	}
	if len(external) > 0 {
		info := newInfo()
		// The external test package imports the primary package; resolve
		// that import — and the primary-package import of every other
		// module-internal dependency the test package pulls in — to the
		// test-augmented view built above. This mirrors `go test`, where
		// the augmented package replaces the plain one program-wide: a
		// memoized dependency compiled against a separately checked
		// primary would make the two views distinct types.Packages, and
		// identical-looking types would stop being identical. The
		// sub-loader shares every dep that does not reach the primary
		// package and re-checks the ones that do against the augmented
		// view (see Loader.base).
		sub := &Loader{
			Fset:       l.Fset,
			ModuleRoot: l.ModuleRoot,
			ModulePath: l.ModulePath,
			std:        l.std,
			pkgs:       map[string]*depPkg{},
			base:       l,
			augmented:  pkgPath,
		}
		if primaryTypes != nil {
			sub.pkgs[pkgPath] = &depPkg{files: primary, types: primaryTypes, info: primaryInfo}
		}
		tpkg, err := sub.check(pkgPath+"_test", external, info)
		if err != nil {
			return nil, fmt.Errorf("%s_test: %w", pkgPath, err)
		}
		out = append(out, &Target{PkgPath: pkgPath + "_test", Dir: abs, Files: external, Types: tpkg, Info: info})
	}
	return out, nil
}

// parseDir parses every .go file in dir whose base name passes keep,
// sorted by name for deterministic diagnostics.
func (l *Loader) parseDir(dir string, keep func(name string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if keep(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !fileIncluded(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// fileIncluded reports whether f's //go:build constraint (if any) is
// satisfied on the host platform. Platform-seamed packages keep one
// implementation file per GOOS family (e.g. graphio's mmap_unix.go /
// mmap_stub.go pair); without this filter both sides would type-check
// into the same package and every declaration would appear redeclared.
func fileIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(buildTagSatisfied)
		}
	}
	return true
}

// buildTagSatisfied mirrors the go tool's default tag set closely
// enough for a module that seams only on GOOS families: the host
// GOOS/GOARCH, the "unix" umbrella, the gc toolchain, and every
// released go1.N language tag (this binary was built by the same
// toolchain that would build the target).
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "aix", "android", "darwin", "dragonfly", "freebsd", "hurd",
			"illumos", "ios", "linux", "netbsd", "openbsd", "solaris":
			return true
		}
	}
	return strings.HasPrefix(tag, "go1.")
}

// check type-checks files as package path, resolving imports through the
// loader itself (pre-seeded l.pkgs entries take precedence over loading
// from disk — LoadDir uses that to substitute the test-augmented view).
func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if firstErr != nil {
		return pkg, firstErr
	}
	return pkg, err
}

// importsPkg reports whether p (transitively) imports path. Source-
// checked packages carry their full import graph, so the walk is exact.
func importsPkg(p *types.Package, path string) bool {
	if p == nil {
		return false
	}
	seen := map[*types.Package]bool{}
	var walk func(q *types.Package) bool
	walk = func(q *types.Package) bool {
		if q.Path() == path {
			return true
		}
		if seen[q] {
			return false
		}
		seen[q] = true
		for _, imp := range q.Imports() {
			if walk(imp) {
				return true
			}
		}
		return false
	}
	for _, imp := range p.Imports() {
		if walk(imp) {
			return true
		}
	}
	return false
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
