package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the interprocedural substrate of ipregel-vet: a module-wide
// call graph plus per-function field-access summaries, computed once per
// Loader and shared by every analyzer through Pass.Substrate. The
// intraprocedural analyzers (nakedatomic, ctxescape, sendphase, ...)
// check one body at a time; the contracts they enforce — atomic access
// discipline, handle lifetimes, combiner purity — are module-wide
// properties, and goroutines started a few frames below the code that
// owns the state are exactly the code shape where a violation hides one
// call away. The substrate makes "anywhere in the module" a queryable
// fact:
//
//   - which struct fields each function reads/writes, atomically
//     (address taken, &f or &f[i], for sync/atomic) vs plain;
//   - which module-internal functions each function calls, including a
//     by-name over-approximation for interface method calls;
//   - which parameters (receiver first) escape into goroutine literals
//     or heap stores, directly or through any call chain;
//   - which functions are reachable from a `go` statement in non-test
//     code (the engine's fork-join dispatch, the service workers);
//   - purity-relevant facts: package-variable writes, captured-variable
//     writes, map ranges, time/rand calls, ctx.Send/Broadcast sites.
//
// Summaries are keyed by symbolic reference strings rather than
// types.Object identity: the module substrate is built from the Loader's
// memoized dependency view, while each analysis target is re-checked with
// its test files, so the "same" function exists as two distinct
// types.Func objects. A FuncRef ("pkgpath.Recv.Name") and a FieldRef
// ("pkgpath.Type.Field") are stable across both views and across generic
// instantiations.

// phaseDirectiveName marks a function declaration as running only inside
// a single-threaded barrier section of the superstep loop (between
// quiesce and the next dispatch). The directive requires a reason:
//
//	//ipregel:phase <reason...>
//
// atomicfield exempts plain accesses of atomically-accessed fields inside
// phase-marked functions; phasesafe verifies the assertion by reporting
// any phase-marked function reachable from a goroutine spawn.
const phaseDirectiveName = "//ipregel:phase"

// EscapeKind classifies how a parameter leaves its stack frame.
type EscapeKind int

const (
	// EscapeGoroutine: captured by (or passed to) a function that runs on
	// another goroutine.
	EscapeGoroutine EscapeKind = iota + 1
	// EscapeHeap: stored into a struct field, package variable, composite
	// literal, or channel, or captured by a function literal that outlives
	// the call.
	EscapeHeap
)

func (k EscapeKind) String() string {
	switch k {
	case EscapeGoroutine:
		return "a goroutine"
	case EscapeHeap:
		return "a heap store"
	}
	return "unknown"
}

// EscapeInfo describes one parameter escape: where it happens and, for
// transitive escapes, the call chain it flows through.
type EscapeInfo struct {
	Kind   EscapeKind
	Pos    token.Pos
	Detail string
	// Via is the chain of function refs the parameter flowed through
	// before escaping (empty for a direct escape).
	Via []string
}

// FieldUse is one access of a struct field inside a function body.
type FieldUse struct {
	// Field is the FieldRef ("pkgpath.Type.Field").
	Field string
	Pos   token.Pos
	// Write is set for stores (including compound assignment and ++/--).
	Write bool
	// Element is set when the access touched an element of a slice/array
	// field rather than the field itself.
	Element bool
}

// Fact is a purity-relevant event at a position (package-var write,
// time/rand call, map range, captured write).
type Fact struct {
	Pos  token.Pos
	What string
}

// Flow records a parameter being passed on, verbatim, as an argument of a
// module-internal callee: parameter Param of this function becomes
// parameter Arg of Callee (receivers are parameter 0).
type Flow struct {
	Param  int
	Callee string
	Arg    int
	Pos    token.Pos
}

// ifaceCall is an unresolved dynamic call through an interface method,
// linked by name during reachability queries.
type ifaceCall struct {
	Name  string
	NArgs int
}

// FuncSummary is the substrate's record of one function declaration
// (facts inside nested function literals are attributed to the enclosing
// declaration).
type FuncSummary struct {
	// Ref is the symbolic key ("pkgpath.Recv.Name").
	Ref string
	// Name is the display name ("core.Engine.dispatch").
	Name string
	Pos  token.Pos
	// Test is set for functions declared in _test.go files; goroutine
	// reachability roots exclude them (a test driving the engine from a
	// goroutine does not put framework code on a framework goroutine).
	Test bool

	// Phase is the //ipregel:phase directive state.
	Phase       bool
	PhasePos    token.Pos
	PhaseReason string

	// Calls are the statically resolved module-internal callees.
	Calls []string
	// IfaceCalls are dynamic calls through interface methods, resolved by
	// name (an over-approximation) during reachability queries.
	IfaceCalls []ifaceCall
	// GoCalls are module-internal functions invoked from inside a `go`
	// statement in this body (directly or inside the spawned literal).
	GoCalls []string
	// SpawnsGo is set when the body contains any `go` statement.
	SpawnsGo bool

	// Atomic and Plain partition this function's struct-field accesses by
	// discipline: Atomic accesses pass the address (&f, &f[i]) directly
	// to a sync/atomic call; Plain accesses read or write the value
	// directly. Address-taking for any other purpose (e.g. caching
	// &f[i] in a local before the atomic op) is counted in neither —
	// the same trust nakedatomic extends to &f[i]. Whole-field
	// operations on slice/array fields (swap, len, make, clear) also
	// appear in neither.
	Atomic []FieldUse
	Plain  []FieldUse

	// Sends are ctx.Send / ctx.Broadcast call sites (Context receiver).
	Sends []token.Pos
	// PkgVarWrites, CapturedWrites, TimeRandCalls and MapRanges are the
	// combiner-purity facts.
	PkgVarWrites   []Fact
	CapturedWrites []Fact
	TimeRandCalls  []Fact
	MapRanges      []Fact

	// NumParams counts receiver (if any) plus declared parameters.
	NumParams int
	// Escapes[i] is the direct escape of parameter i, nil if none.
	Escapes []*EscapeInfo
	// Flows records parameters passed through to module-internal callees.
	Flows []Flow
}

// Substrate is the module-wide index of FuncSummaries plus the
// directive-marked field sets, with memoized reachability queries.
type Substrate struct {
	modulePath string
	funcs      map[string]*FuncSummary
	// markedAtomic holds FieldRefs carrying //ipregel:atomic anywhere in
	// the module (those stay under nakedatomic's per-package regime).
	markedAtomic map[string]bool

	methodsByName map[string][]string // lazily built iface-call resolution index
	escMemo       map[string]*EscapeInfo
	goReach       map[string]bool
	sendMemo      map[string]token.Pos // ref -> first reachable send (NoPos sentinel via ok)
	sendSeen      map[string]bool
}

// Substrate returns the interprocedural substrate for this pass: the
// module-wide summaries (built once per Loader and shared by every pass)
// extended with summaries of the target's own files, which include test
// files and — for fixture packages — files outside the module tree. Run
// shares one extended substrate across every analyzer of a target.
func (p *Pass) Substrate() (*Substrate, error) {
	if p.sub != nil {
		return p.sub()
	}
	if p.loader == nil {
		return nil, fmt.Errorf("analysis: pass has no loader")
	}
	return buildTargetSubstrate(p.loader, p.Fset, p.Files, p.Pkg, p.TypesInfo)
}

// buildTargetSubstrate merges the memoized module substrate with
// summaries of one target's files. Target files win over the module view
// of the same package: they are the same declarations re-checked with
// test files present.
func buildTargetSubstrate(l *Loader, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) (*Substrate, error) {
	mod, err := l.moduleSubstrate()
	if err != nil {
		return nil, err
	}
	ext := &Substrate{
		modulePath:   mod.modulePath,
		funcs:        make(map[string]*FuncSummary, len(mod.funcs)+64),
		markedAtomic: make(map[string]bool, len(mod.markedAtomic)),
	}
	for k, v := range mod.funcs {
		ext.funcs[k] = v
	}
	for k := range mod.markedAtomic {
		ext.markedAtomic[k] = true
	}
	summarizeFiles(ext, fset, files, pkg, info)
	return ext, nil
}

// moduleSubstrate builds (once) the substrate over every package of the
// module, from the loader's memoized non-test dependency view.
func (l *Loader) moduleSubstrate() (*Substrate, error) {
	l.subOnce.Do(func() {
		s := &Substrate{
			modulePath:   l.ModulePath,
			funcs:        map[string]*FuncSummary{},
			markedAtomic: map[string]bool{},
		}
		for _, path := range l.modulePackages() {
			p, err := l.dep(path)
			if err != nil {
				// A package that does not compile simply contributes no
				// summaries; the target load will surface the error.
				continue
			}
			summarizeFiles(s, l.Fset, p.files, p.types, p.info)
		}
		l.sub = s
	})
	return l.sub, nil
}

// modulePackages walks the module tree and returns the import paths of
// every directory containing non-test Go files, skipping testdata,
// vendor, and hidden/underscore directories.
func (l *Loader) modulePackages() []string {
	var paths []string
	filepath.WalkDir(l.ModuleRoot, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if dir != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, rerr := os.ReadDir(dir)
		if rerr != nil {
			return nil
		}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
				strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				continue
			}
			rel, rerr := filepath.Rel(l.ModuleRoot, dir)
			if rerr != nil {
				return nil
			}
			path := l.ModulePath
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			paths = append(paths, path)
			break
		}
		return nil
	})
	sort.Strings(paths)
	return paths
}

// Func returns the summary for ref, nil if unknown.
func (s *Substrate) Func(ref string) *FuncSummary { return s.funcs[ref] }

// MarkedAtomic reports whether the field carries //ipregel:atomic
// anywhere in the module.
func (s *Substrate) MarkedAtomic(field string) bool { return s.markedAtomic[field] }

// Funcs calls fn for every summary, in sorted ref order.
func (s *Substrate) Funcs(fn func(*FuncSummary)) {
	refs := make([]string, 0, len(s.funcs))
	for ref := range s.funcs {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	for _, ref := range refs {
		fn(s.funcs[ref])
	}
}

// AtomicFields returns the set of FieldRefs with at least one atomic
// (address-taken) access anywhere in the substrate.
func (s *Substrate) AtomicFields() map[string]bool {
	out := map[string]bool{}
	for _, sum := range s.funcs {
		for _, u := range sum.Atomic {
			out[u.Field] = true
		}
	}
	return out
}

// callees resolves sum's outgoing edges: static calls plus interface
// calls linked by method name and arity across the module (a deliberate
// over-approximation — dynamic dispatch cannot be resolved exactly
// without whole-program type flow).
func (s *Substrate) callees(sum *FuncSummary) []string {
	if len(sum.IfaceCalls) == 0 {
		return sum.Calls
	}
	if s.methodsByName == nil {
		s.methodsByName = map[string][]string{}
		for ref, f := range s.funcs {
			// Methods have refs of the form pkg.Recv.Name: strip the
			// package path, then require a two-part Recv.Name tail.
			tail := ref[strings.LastIndex(ref, "/")+1:]
			parts := strings.Split(tail, ".")
			if len(parts) == 3 { // pkgname.Recv.Name
				s.methodsByName[parts[2]] = append(s.methodsByName[parts[2]], ref)
			}
			_ = f
		}
		for _, refs := range s.methodsByName {
			sort.Strings(refs)
		}
	}
	out := append([]string(nil), sum.Calls...)
	for _, ic := range sum.IfaceCalls {
		for _, ref := range s.methodsByName[ic.Name] {
			if f := s.funcs[ref]; f != nil && f.NumParams == ic.NArgs+1 { // +1: receiver
				out = append(out, ref)
			}
		}
	}
	return out
}

// Reach returns the closure of summaries reachable from the given refs
// through static and (name-linked) interface calls, including the roots
// themselves where known.
func (s *Substrate) Reach(roots []string) []*FuncSummary {
	seen := map[string]bool{}
	var out []*FuncSummary
	var work []string
	work = append(work, roots...)
	for len(work) > 0 {
		ref := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[ref] {
			continue
		}
		seen[ref] = true
		sum := s.funcs[ref]
		if sum == nil {
			continue
		}
		out = append(out, sum)
		work = append(work, s.callees(sum)...)
	}
	return out
}

// GoroutineReachable returns the set of refs reachable from a `go`
// statement in non-test module code — the dispatch and service-worker
// entry points and everything they can call.
func (s *Substrate) GoroutineReachable() map[string]bool {
	if s.goReach != nil {
		return s.goReach
	}
	var roots []string
	for _, sum := range s.funcs {
		if sum.Test {
			continue
		}
		roots = append(roots, sum.GoCalls...)
	}
	s.goReach = map[string]bool{}
	for _, sum := range s.Reach(roots) {
		s.goReach[sum.Ref] = true
	}
	return s.goReach
}

// ParamEscape reports how parameter idx of ref escapes, directly or
// through any chain of module-internal calls; nil if it does not.
// Receivers are parameter 0 of methods.
func (s *Substrate) ParamEscape(ref string, idx int) *EscapeInfo {
	if s.escMemo == nil {
		s.escMemo = map[string]*EscapeInfo{}
	}
	key := fmt.Sprintf("%s#%d", ref, idx)
	if e, ok := s.escMemo[key]; ok {
		return e // also the cycle guard: in-progress entries read as nil
	}
	s.escMemo[key] = nil
	sum := s.funcs[ref]
	if sum == nil {
		return nil
	}
	if idx < len(sum.Escapes) && sum.Escapes[idx] != nil {
		s.escMemo[key] = sum.Escapes[idx]
		return sum.Escapes[idx]
	}
	for _, fl := range sum.Flows {
		if fl.Param != idx {
			continue
		}
		if e := s.ParamEscape(fl.Callee, fl.Arg); e != nil {
			res := &EscapeInfo{
				Kind:   e.Kind,
				Pos:    fl.Pos,
				Detail: e.Detail,
				Via:    append([]string{fl.Callee}, e.Via...),
			}
			s.escMemo[key] = res
			return res
		}
	}
	return nil
}

// SendReachable reports whether a ctx.Send/Broadcast call is reachable
// from ref, returning the position of one such call.
func (s *Substrate) SendReachable(ref string) (token.Pos, bool) {
	if s.sendMemo == nil {
		s.sendMemo = map[string]token.Pos{}
		s.sendSeen = map[string]bool{}
	}
	if pos, ok := s.sendMemo[ref]; ok {
		return pos, pos.IsValid()
	}
	if s.sendSeen[ref] {
		return token.NoPos, false // cycle
	}
	s.sendSeen[ref] = true
	sum := s.funcs[ref]
	if sum == nil {
		return token.NoPos, false
	}
	if len(sum.Sends) > 0 {
		s.sendMemo[ref] = sum.Sends[0]
		return sum.Sends[0], true
	}
	for _, callee := range s.callees(sum) {
		if pos, ok := s.SendReachable(callee); ok {
			s.sendMemo[ref] = pos
			return pos, true
		}
	}
	s.sendMemo[ref] = token.NoPos
	return token.NoPos, false
}

// FuncRef builds the symbolic reference for fn ("pkgpath.Recv.Name",
// receiver pointer-ness and generic instantiation erased); "" when fn has
// no package (builtins).
func FuncRef(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if n, ok := t.(*types.Named); ok && n.Obj() != nil {
			recv = n.Obj().Name() + "."
		} else if tp, ok := t.(*types.TypeParam); ok && tp.Obj() != nil {
			recv = tp.Obj().Name() + "."
		}
	}
	return fn.Pkg().Path() + "." + recv + fn.Name()
}

// shortRef trims a ref's package path to its last element for display:
// "ipregel/internal/core.Engine.dispatch" -> "core.Engine.dispatch".
func shortRef(ref string) string {
	return ref[strings.LastIndex(ref, "/")+1:]
}

// fieldRefOf builds the FieldRef for a selected struct field, deriving
// the owning named type from the selection's receiver; "" when the
// receiver type is unnamed or the selection goes through an embedded
// field (whose FieldRef would belong to the embedded type, not the
// receiver).
func fieldRefOf(selection *types.Selection) string {
	if selection == nil || selection.Kind() != types.FieldVal || len(selection.Index()) != 1 {
		return ""
	}
	obj := selection.Obj()
	if obj == nil {
		return ""
	}
	t := types.Unalias(selection.Recv())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return declaredFieldRef(strings.TrimSuffix(n.Obj().Pkg().Path(), "_test"), n.Obj().Name(), obj.Name())
}

// declaredFieldRef builds the FieldRef for a field declared in type decl
// typeName of package pkgPath.
func declaredFieldRef(pkgPath, typeName, fieldName string) string {
	return pkgPath + "." + typeName + "." + fieldName
}

// timeRandDenied reports whether fn is a nondeterminism source a combiner
// must not call: wall-clock reads/sleeps and every math/rand function.
func timeRandDenied(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return true
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTicker", "NewTimer":
			return true
		}
	}
	return false
}

// phaseDirective scans a doc comment for //ipregel:phase, returning the
// reason text ("" when the directive is present but bare).
func phaseDirective(doc *ast.CommentGroup) (found bool, reason string, pos token.Pos) {
	if doc == nil {
		return false, "", token.NoPos
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, phaseDirectiveName)
		if !ok {
			continue
		}
		if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
			continue // e.g. //ipregel:phasesomething
		}
		return true, strings.TrimSpace(rest), c.Pos()
	}
	return false, "", token.NoPos
}

// markedFields collects the FieldRefs of struct fields carrying the given
// //-directive in files of pkgPath. Only fields of top-level named struct
// types are keyed (anonymous struct types cannot be named by a FieldRef).
func markedFields(files []*ast.File, pkgPath, directive string) map[string]bool {
	out := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, field := range st.Fields.List {
					if !directiveOn([]*ast.CommentGroup{field.Doc, field.Comment}, directive) {
						continue
					}
					for _, name := range field.Names {
						out[declaredFieldRef(pkgPath, ts.Name.Name, name.Name)] = true
					}
				}
			}
		}
	}
	return out
}

// summarizeFiles summarizes every function declaration in files into s,
// and records directive-marked fields.
func summarizeFiles(s *Substrate, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) {
	if pkg == nil || info == nil {
		return
	}
	pkgPath := strings.TrimSuffix(pkg.Path(), "_test")
	for ref := range markedFields(files, pkgPath, atomicDirective) {
		s.markedAtomic[ref] = true
	}
	for _, f := range files {
		test := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			ref := FuncRef(obj)
			if ref == "" {
				continue
			}
			sum := summarizeFunc(s.modulePath, info, fd, obj)
			sum.Ref = ref
			sum.Name = shortRef(ref)
			sum.Test = test
			sum.Phase, sum.PhaseReason, sum.PhasePos = phaseDirective(fd.Doc)
			s.funcs[ref] = sum
		}
	}
}

// SummarizeBody summarizes one function literal against the target's type
// info, with captured-variable writes computed relative to the literal
// itself. combpure uses this for combiners registered as literals.
func (p *Pass) SummarizeBody(lit *ast.FuncLit) *FuncSummary {
	modPath := ""
	if p.loader != nil {
		modPath = p.loader.ModulePath
	}
	return summarizeNode(modPath, p.TypesInfo, lit, lit.Body, nil, paramObjs(p.TypesInfo, nil, lit.Type))
}

// summarizeFunc summarizes a function declaration.
func summarizeFunc(modPath string, info *types.Info, fd *ast.FuncDecl, obj *types.Func) *FuncSummary {
	return summarizeNode(modPath, info, fd, fd.Body, obj, paramObjs(info, fd.Recv, fd.Type))
}

// paramObjs maps parameter objects (receiver first) to their index.
func paramObjs(info *types.Info, recv *ast.FieldList, ftype *ast.FuncType) map[types.Object]int {
	params := map[types.Object]int{}
	idx := 0
	addList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				idx++ // unnamed parameter still occupies a slot
				continue
			}
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = idx
				}
				idx++
			}
		}
	}
	addList(recv)
	if ftype != nil {
		addList(ftype.Params)
	}
	return params
}

// summarizeNode walks one function body (declaration or literal) and
// produces its summary. scope is the node delimiting "local": writes to
// variables declared outside it are captured writes.
func summarizeNode(modPath string, info *types.Info, scope ast.Node, body *ast.BlockStmt, obj *types.Func, params map[types.Object]int) *FuncSummary {
	sum := &FuncSummary{Pos: scope.Pos()}
	n := 0
	for _, idx := range params {
		if idx+1 > n {
			n = idx + 1
		}
	}
	// Unnamed params can push the count higher than the map records.
	if obj != nil {
		if sig, ok := obj.Type().(*types.Signature); ok {
			n = sig.Params().Len()
			if sig.Recv() != nil {
				n++
			}
		}
	}
	sum.NumParams = n
	sum.Escapes = make([]*EscapeInfo, n)

	internal := func(fn *types.Func) bool {
		return fn != nil && fn.Pkg() != nil &&
			(fn.Pkg().Path() == modPath || strings.HasPrefix(fn.Pkg().Path(), modPath+"/") ||
				// Fixture packages live outside the module path proper but
				// reference each other and core; treat "fixture/..." as
				// internal so cross-function fixtures exercise the graph.
				strings.HasPrefix(fn.Pkg().Path(), "fixture/"))
	}
	recordEscape := func(idx int, kind EscapeKind, pos token.Pos, detail string) {
		if idx < len(sum.Escapes) && sum.Escapes[idx] == nil {
			sum.Escapes[idx] = &EscapeInfo{Kind: kind, Pos: pos, Detail: detail}
		}
	}
	paramOf := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		idx, ok := params[info.Uses[id]]
		return idx, ok
	}
	// baseIdent strips selectors/indexes/stars/parens to the root ident.
	var baseIdent func(e ast.Expr) *ast.Ident
	baseIdent = func(e ast.Expr) *ast.Ident {
		switch e := e.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			return baseIdent(e.X)
		case *ast.IndexExpr:
			return baseIdent(e.X)
		case *ast.StarExpr:
			return baseIdent(e.X)
		case *ast.ParenExpr:
			return baseIdent(e.X)
		}
		return nil
	}
	isPkgVar := func(id *ast.Ident) bool {
		v, ok := info.Uses[id].(*types.Var)
		return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
	}
	classifyWrite := func(lhs ast.Expr, pos token.Pos) {
		id := baseIdent(lhs)
		if id == nil {
			return
		}
		if isPkgVar(id) {
			sum.PkgVarWrites = append(sum.PkgVarWrites, Fact{Pos: pos, What: "writes package variable " + id.Name})
			return
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return
		}
		if _, isParam := params[v]; isParam {
			return // *old = x is the combiner's job
		}
		if v.Pos() < scope.Pos() || v.Pos() > scope.End() {
			sum.CapturedWrites = append(sum.CapturedWrites, Fact{Pos: pos, What: "writes captured variable " + id.Name})
		}
	}

	// goDepth tracks whether the walk is inside a `go` statement's callee
	// (directly or inside the spawned literal); litDepth tracks enclosure
	// in any non-IIFE function literal (captures there escape).
	inspectWithStack(body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn, _ := calleeFunc(info, n)
			if fn == nil {
				return
			}
			if timeRandDenied(fn) {
				sum.TimeRandCalls = append(sum.TimeRandCalls, Fact{Pos: n.Pos(), What: "calls " + fn.Pkg().Path() + "." + fn.Name()})
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if fn.Name() == "Send" || fn.Name() == "Broadcast" {
					if tv, ok := info.Types[sel.X]; ok && isContextPtr(tv.Type) {
						sum.Sends = append(sum.Sends, n.Pos())
					}
				}
			}
			if !internal(fn) {
				return
			}
			ref := FuncRef(fn)
			if ref == "" {
				return
			}
			sig, _ := fn.Type().(*types.Signature)
			ifaceRecv := sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
			spawned := underGo(stack)
			if ifaceRecv {
				sum.IfaceCalls = append(sum.IfaceCalls, ifaceCall{Name: fn.Name(), NArgs: len(n.Args)})
			} else if spawned {
				sum.GoCalls = append(sum.GoCalls, ref)
				sum.Calls = append(sum.Calls, ref)
			} else {
				sum.Calls = append(sum.Calls, ref)
			}
			// Parameter flows and goroutine-arg escapes.
			recvOffset := 0
			if sig != nil && sig.Recv() != nil {
				recvOffset = 1
				if selFun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if idx, ok := paramOf(selFun.X); ok && !ifaceRecv {
						sum.Flows = append(sum.Flows, Flow{Param: idx, Callee: ref, Arg: 0, Pos: selFun.X.Pos()})
					}
				}
			}
			nParams := 0
			if sig != nil {
				nParams = sig.Params().Len()
			}
			for ai, arg := range n.Args {
				idx, ok := paramOf(arg)
				if !ok {
					continue
				}
				if spawned {
					recordEscape(idx, EscapeGoroutine, arg.Pos(), "passed to "+shortRef(ref)+" on a new goroutine")
					continue
				}
				if ai < nParams && !ifaceRecv {
					sum.Flows = append(sum.Flows, Flow{Param: idx, Callee: ref, Arg: ai + recvOffset, Pos: arg.Pos()})
				}
			}

		case *ast.GoStmt:
			sum.SpawnsGo = true

		case *ast.FuncLit:
			// Captures by a literal escape unless the literal is invoked
			// in place (IIFE / deferred call): spawned literals move the
			// capture to another goroutine, stored/passed literals to the
			// heap.
			kind, capturedOK := litEscapeKind(stack, n)
			if capturedOK {
				return
			}
			for obj, idx := range params {
				used := false
				var usePos token.Pos
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
						used, usePos = true, id.Pos()
						return false
					}
					return true
				})
				if used {
					detail := "captured by a function literal that outlives the call"
					if kind == EscapeGoroutine {
						detail = "captured by a goroutine literal"
					}
					recordEscape(idx, kind, usePos, detail)
				}
			}

		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				classifyWrite(lhs, n.Pos())
			}
			// Heap escapes: a parameter stored through a selector, index,
			// deref, or into a package variable.
			for i, rhs := range n.Rhs {
				idx, ok := paramOf(rhs)
				if !ok {
					continue
				}
				if i >= len(n.Lhs) {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					recordEscape(idx, EscapeHeap, rhs.Pos(), "stored into field "+lhs.Sel.Name)
				case *ast.IndexExpr, *ast.StarExpr:
					recordEscape(idx, EscapeHeap, rhs.Pos(), "stored through a pointer or index")
				case *ast.Ident:
					if isPkgVar(lhs) {
						recordEscape(idx, EscapeHeap, rhs.Pos(), "stored into package variable "+lhs.Name)
					}
				}
			}

		case *ast.IncDecStmt:
			classifyWrite(n.X, n.Pos())

		case *ast.SendStmt:
			if idx, ok := paramOf(n.Value); ok {
				recordEscape(idx, EscapeHeap, n.Value.Pos(), "sent on a channel")
			}

		case *ast.KeyValueExpr:
			if idx, ok := paramOf(n.Value); ok {
				recordEscape(idx, EscapeHeap, n.Value.Pos(), "stored into a composite literal")
			}

		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					sum.MapRanges = append(sum.MapRanges, Fact{Pos: n.Pos(), What: "ranges over a map"})
				}
			}

		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if idx, ok := paramOf(elt); ok {
					recordEscape(idx, EscapeHeap, elt.Pos(), "stored into a composite literal")
				}
			}

		case *ast.SelectorExpr:
			use, class := fieldUseOf(info, n, stack)
			switch class {
			case useAtomic:
				sum.Atomic = append(sum.Atomic, use)
			case usePlain:
				sum.Plain = append(sum.Plain, use)
			}
		}
	})
	sum.Calls = dedupStrings(sum.Calls)
	sum.GoCalls = dedupStrings(sum.GoCalls)
	return sum
}

// useClass is fieldUseOf's verdict on one selector.
type useClass int

const (
	useSkip   useClass = iota // not a recordable field access
	useAtomic                 // address passed directly to sync/atomic
	usePlain                  // plain value read/write or element access
)

// fieldUseOf classifies a selector as a field access worth recording:
// scalar-field value reads/writes and slice/array element reads/writes.
// Whole-field operations on slice/array/map fields, further selections
// (method calls, nested fields), and address-taking outside a direct
// sync/atomic argument are skipped.
func fieldUseOf(info *types.Info, sel *ast.SelectorExpr, stack []ast.Node) (FieldUse, useClass) {
	selection := info.Selections[sel]
	ref := fieldRefOf(selection)
	if ref == "" {
		return FieldUse{}, useSkip
	}
	var parent, grand ast.Node
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	if len(stack) > 1 {
		grand = stack[len(stack)-2]
	}
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		return FieldUse{}, useSkip // method call or deeper selection
	case *ast.KeyValueExpr:
		if p.Key == sel {
			return FieldUse{}, useSkip // composite-literal field key
		}
	case *ast.IndexExpr:
		if p.X != sel {
			break // field used as the index expression: a scalar read
		}
		if u, ok := grand.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if atomicArg(info, stack[:len(stack)-2], u) {
				return FieldUse{Field: ref, Pos: sel.Pos(), Element: true}, useAtomic
			}
			return FieldUse{}, useSkip // &f[i] cached for later use: trusted
		}
		return FieldUse{Field: ref, Pos: p.Pos(), Element: true, Write: writesTo(stack[:len(stack)-1], p)}, usePlain
	case *ast.RangeStmt:
		if p.X == sel {
			if elementTyped(selection) && p.Value != nil {
				return FieldUse{Field: ref, Pos: p.Pos(), Element: true}, usePlain
			}
			return FieldUse{}, useSkip // index-only range, or map/chan range
		}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			if atomicArg(info, stack[:len(stack)-1], p) {
				return FieldUse{Field: ref, Pos: sel.Pos()}, useAtomic
			}
			return FieldUse{}, useSkip // address taken for other purposes
		}
	}
	if elementTyped(selection) || mapTyped(selection) {
		return FieldUse{}, useSkip // whole-field op on a slice/array/map field
	}
	return FieldUse{Field: ref, Pos: sel.Pos(), Write: writesTo(stack, sel)}, usePlain
}

// atomicArg reports whether addr (&f or &f[i]) is an argument of a
// direct sync/atomic call.
func atomicArg(info *types.Info, stack []ast.Node, addr ast.Expr) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	for _, arg := range call.Args {
		if arg == addr {
			fn, _ := calleeFunc(info, call)
			return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
		}
	}
	return false
}

func elementTyped(selection *types.Selection) bool {
	switch types.Unalias(selection.Type()).Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

func mapTyped(selection *types.Selection) bool {
	_, ok := types.Unalias(selection.Type()).Underlying().(*types.Map)
	return ok
}

// writesTo reports whether expr is a store target: the LHS of an
// assignment (including compound assignment) or the operand of ++/--.
func writesTo(stack []ast.Node, expr ast.Expr) bool {
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == expr {
				return true
			}
		}
	case *ast.IncDecStmt:
		return p.X == expr
	}
	return false
}

// underGo reports whether the walk position described by stack is inside
// a `go` statement (directly as its call, or inside the spawned literal).
func underGo(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.GoStmt); ok {
			return true
		}
	}
	return false
}

// litEscapeKind classifies a function literal's fate: (EscapeGoroutine,
// false) when spawned by `go`, (EscapeHeap, false) when it may outlive
// the call (assigned, passed, returned, stored), and (_, true) when it is
// invoked in place (IIFE or deferred call) so captures stay local.
func litEscapeKind(stack []ast.Node, lit *ast.FuncLit) (EscapeKind, bool) {
	if len(stack) == 0 {
		return EscapeHeap, false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.GoStmt:
		return EscapeGoroutine, false
	case *ast.CallExpr:
		spawned := underGo(stack[:len(stack)-1])
		if p.Fun == lit {
			if spawned {
				return EscapeGoroutine, false // go func(){...}()
			}
			return 0, true // IIFE: func(){...}() and defer func(){...}()
		}
		if spawned {
			return EscapeGoroutine, false
		}
		return EscapeHeap, false
	}
	if underGo(stack) {
		return EscapeGoroutine, false
	}
	return EscapeHeap, false
}

// inspectWithStack walks root, calling visit with each node and its
// ancestor chain (excluding the node itself), always descending.
func inspectWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

func dedupStrings(in []string) []string {
	if len(in) < 2 {
		return in
	}
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
