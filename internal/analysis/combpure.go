package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CombPure enforces combiner purity, the property that makes
// one-thread-vs-many parity provable (TestThreadsParityTable relies on
// it). A CombineFunc runs inside message delivery — under the destination
// mailbox's lock, in the one-thread inbox's scatter loop, or in the pull
// collector — any number of times for one logical message and in any
// interleaving. So it must not send (a Send from inside delivery re-enters
// the mailbox lock or races the collector's owner-only write), must not
// write state it did not receive as an argument, and must not consult
// nondeterminism sources. (Named aggregators reduce with operator
// constants — core.AggOp — and carry no user code; functional reducers,
// if ever added, register here too.)
var CombPure = &Analyzer{
	Name: "combpure",
	Doc: `flag combiner hooks that send, write external state, range over maps, or call time/rand

Functions used as core.Program.Combine or converted to core.CombineFunc
must be deterministic pure reductions of their two arguments. This
analyzer reports ctx.Send and ctx.Broadcast calls, writes to captured or
package-level variables, map ranges (iteration order is
nondeterministic), and calls to time.Now/Sleep/... or any math/rand
function. Same-package callees are followed lexically and reported where
the impurity is; callees in other module packages are read from the
loader's type-checked view and reported at the call or registration
site in the checked package. internal/core is not followed: it is the
framework the combiner runs in, not combiner code.`,
	Run: runCombPure,
}

// combinerRoots collects every expression registered as a combiner in
// the target: Program{Combine: f} literals, core.CombineFunc[T](f)
// conversions, and CombineFunc-typed variable declarations.
func combinerRoots(pass *Pass) []ast.Expr {
	info := pass.TypesInfo
	var roots []ast.Expr
	inspectFiles(pass.Files, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok && coreNamed(tv.Type, "Program") {
				if v := fieldValue(n, "Combine"); v != nil {
					roots = append(roots, v)
				}
			}
		case *ast.CallExpr:
			// Explicit conversion: core.CombineFunc[T](f).
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() && coreNamed(tv.Type, "CombineFunc") && len(n.Args) == 1 {
				roots = append(roots, n.Args[0])
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				if tv, ok := info.Types[n.Type]; ok && coreNamed(tv.Type, "CombineFunc") {
					roots = append(roots, n.Values...)
				}
			}
		}
		return true
	})
	return roots
}

func runCombPure(pass *Pass) error {
	s := &combScan{pass: pass, seen: map[*ast.FuncDecl]bool{}}
	own := &depPkg{files: pass.Files, types: pass.Pkg, info: pass.TypesInfo}
	for _, root := range combinerRoots(pass) {
		if lit, ok := ast.Unparen(root).(*ast.FuncLit); ok {
			s.body(own, lit, lit.Body, "", token.NoPos)
			continue
		}
		// A named combiner, possibly instantiated: f or f[T].
		s.follow(own, calleeFunc(pass.TypesInfo, root), root.Pos(), token.NoPos)
	}
	return nil
}

// combScan walks combiner bodies, each function declaration at most once
// per target however many combiners reach it.
type combScan struct {
	pass *Pass
	seen map[*ast.FuncDecl]bool
}

// follow scans fn's declaration: in v, the syntax and type information
// being read, when fn belongs to v's package, else in the loader's view of
// its module package. at is the position of the reference in v; anchor,
// once set, is where findings in foreign syntax are reported (the first
// reference that left the target).
func (s *combScan) follow(v *depPkg, fn *types.Func, at, anchor token.Pos) {
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Pkg() != v.types {
		if fn.Pkg().Path() == CorePath {
			return
		}
		if v = s.pass.dependency(fn.Pkg().Path()); v == nil {
			return // the standard library: its effects are checked as facts
		}
		if !anchor.IsValid() {
			anchor = at
		}
	}
	decl := funcDecl(v.files, fn)
	if decl == nil || decl.Body == nil || s.seen[decl] {
		return
	}
	s.seen[decl] = true
	s.body(v, decl, decl.Body, displayName(fn), anchor)
}

// body reports the impurities of one function body, following its calls.
// scope delimits "local": a write to a variable declared outside it is a
// captured write (parameters lie inside it). name and anchor are set for
// foreign syntax, whose findings are reported at anchor.
func (s *combScan) body(v *depPkg, scope ast.Node, body *ast.BlockStmt, name string, anchor token.Pos) {
	const contract = "combiners must be deterministic pure reductions of their arguments (they run inside message delivery, any number of times, concurrently)"
	report := func(pos token.Pos, what string) {
		if anchor.IsValid() {
			s.pass.Reportf(anchor, "combiner reaches %s, which %s: %s", name, what, contract)
		} else {
			s.pass.Reportf(pos, "combine function %s: %s", what, contract)
		}
	}
	write := func(lhs ast.Expr, pos token.Pos) {
		id := baseIdent(lhs)
		if id == nil {
			return
		}
		obj, ok := v.info.Uses[id].(*types.Var)
		switch {
		case !ok || obj.Pkg() == nil:
		case obj.Parent() == obj.Pkg().Scope():
			report(pos, "writes package variable "+id.Name)
		case obj.Pos() < scope.Pos() || obj.Pos() > scope.End():
			report(pos, "writes captured variable "+id.Name)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(v.info, n.Fun)
			switch {
			case fn == nil:
			case isContextSend(fn):
				report(n.Pos(), "calls Context."+fn.Name())
			case timeRandDenied(fn):
				report(n.Pos(), "calls "+fn.Pkg().Path()+"."+fn.Name())
			default:
				s.follow(v, fn, n.Pos(), anchor)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs, n.Pos())
			}
		case *ast.IncDecStmt:
			write(n.X, n.Pos())
		case *ast.RangeStmt:
			if tv, ok := v.info.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(n.Pos(), "ranges over a map (iteration order is nondeterministic)")
				}
			}
		}
		return true
	})
}

// calleeFunc resolves a called expression to the *types.Func it names
// (a function or a method), unwrapping an explicit instantiation f[T] to
// f; nil for anything else (a conversion, a func value).
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		return calleeFunc(info, fun.X)
	case *ast.IndexListExpr:
		return calleeFunc(info, fun.X)
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// baseIdent strips selectors, indexes, derefs and parens to the root
// identifier of an assignment target.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isContextSend reports whether fn is (*core.Context).Send or Broadcast.
func isContextSend(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return (fn.Name() == "Send" || fn.Name() == "Broadcast") && sig != nil && sig.Recv() != nil && isContextPtr(sig.Recv().Type())
}

// timeRandDenied reports whether fn is a nondeterminism source a combiner
// must not call: wall-clock reads/sleeps and every math/rand function.
func timeRandDenied(fn *types.Func) bool {
	if fn.Pkg() == nil {
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

// displayName renders fn for a finding: "pkg.Recv.Name" or "pkg.Name".
func displayName(fn *types.Func) string {
	if r := recvName(fn); r != "" {
		return fn.Pkg().Name() + "." + r + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
