package analysis

import (
	"go/ast"
	"go/types"
)

// BypassHalt enforces the §4 soundness precondition of selection bypass:
// the technique is only valid "for applications in which every vertex
// votes to halt at the end of every superstep". A Compute function with
// a return path that neither votes to halt nor sends leaves the vertex
// active with no frontier entry; the engine detects the aggregate
// symptom at run time (ErrBypassViolation, after a superstep has been
// wasted) — this analyzer points at the exact return path at lint time.
var BypassHalt = &Analyzer{
	Name: "bypasshalt",
	Doc: `flag SelectionBypass configs whose Compute can return without halting

For engine constructions whose Config literally sets SelectionBypass:
true, the Compute function is checked path-sensitively: every way of
leaving Compute must pass a ctx.VoteToHalt, ctx.Send or ctx.Broadcast
call. Program constructors in other packages of the module are followed.
The analysis is conservative (a path a linter cannot prove safe is
reported); use an //ipregel:ignore directive with a reason for paths
that are unreachable in practice.`,
	Run: runBypassHalt,
}

func runBypassHalt(pass *Pass) error {
	info := pass.TypesInfo
	checked := map[ast.Node]bool{}
	walkWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cfgArg, progArg, ok := engineCall(info, call)
		if !ok {
			return true
		}
		cfgLit := resolveComposite(info, append(stack, call), cfgArg)
		if !constBoolTrue(info, fieldValue(cfgLit, "SelectionBypass")) {
			return true
		}
		compute := pass.resolveCompute(append(stack, call), progArg)
		if compute == nil || checked[compute.node] {
			return true
		}
		checked[compute.node] = true
		scan := &haltScan{pass: pass, info: compute.info, ctxName: compute.ctxName}
		called, terminated := scan.block(compute.body.List, false)
		if !terminated && !called {
			pass.Reportf(compute.body.Rbrace, "Compute can fall off the end without ctx.VoteToHalt or a send; SelectionBypass requires every vertex to vote to halt each superstep (paper §4)")
		}
		return true
	})
	return nil
}

// computeFn is a resolved Compute function: its body, the name of its
// Context parameter, and the type info covering it (nil when the body
// came from another package's syntax, where name matching is used).
type computeFn struct {
	node    ast.Node
	body    *ast.BlockStmt
	ctxName string
	info    *types.Info
}

// resolveCompute chases the prog argument of an engine construction to
// the Compute function: an inline Program literal, a local variable
// holding one, or a call to a Program-returning constructor in this or
// another module package.
func (pass *Pass) resolveCompute(path []ast.Node, progArg ast.Expr) *computeFn {
	info := pass.TypesInfo
	if lit := resolveComposite(info, path, progArg); lit != nil {
		return pass.computeFromExpr(fieldValue(lit, "Compute"), info, pass.Files)
	}
	call, ok := ast.Unparen(progArg).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, _ := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	var files []*ast.File
	var fnInfo *types.Info
	if fn.Pkg() == pass.Pkg {
		files, fnInfo = pass.Files, info
	} else if dep := pass.dependency(fn.Pkg().Path()); dep != nil {
		files = dep.files
	}
	decl := funcDecl(files, fn)
	if decl == nil || decl.Body == nil {
		return nil
	}
	// Find `return <Program literal>` inside the constructor.
	var lit *ast.CompositeLit
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		if cl, ok := ast.Unparen(ret.Results[0]).(*ast.CompositeLit); ok && fieldValue(cl, "Compute") != nil {
			lit = cl
		}
		return true
	})
	if lit == nil {
		return nil
	}
	return pass.computeFromExpr(fieldValue(lit, "Compute"), fnInfo, files)
}

// computeFromExpr resolves a Compute field value (function literal or
// reference to a declared function) within the given syntax.
func (pass *Pass) computeFromExpr(expr ast.Expr, info *types.Info, files []*ast.File) *computeFn {
	switch e := ast.Unparen(expr).(type) {
	case nil:
		return nil
	case *ast.FuncLit:
		return newComputeFn(e, e.Type, e.Body, info)
	case *ast.Ident:
		if decl := funcDeclByName(files, "", e.Name); decl != nil && decl.Body != nil {
			return newComputeFn(decl, decl.Type, decl.Body, info)
		}
	case *ast.SelectorExpr:
		// Reference into another package: resolvable only from the
		// analyzed package, where type info identifies the target.
		if info != nil {
			if fn, ok := info.Uses[e.Sel].(*types.Func); ok && fn.Pkg() != nil {
				if dep := pass.dependency(fn.Pkg().Path()); dep != nil {
					if decl := funcDecl(dep.files, fn); decl != nil && decl.Body != nil {
						return newComputeFn(decl, decl.Type, decl.Body, nil)
					}
				}
			}
		}
	}
	return nil
}

func newComputeFn(node ast.Node, ftype *ast.FuncType, body *ast.BlockStmt, info *types.Info) *computeFn {
	if ftype.Params == nil || len(ftype.Params.List) == 0 || len(ftype.Params.List[0].Names) == 0 {
		return nil
	}
	return &computeFn{node: node, body: body, ctxName: ftype.Params.List[0].Names[0].Name, info: info}
}

// haltScan is the conservative path analysis: block walks a statement
// list and reports every return reachable without a preceding halt/send.
type haltScan struct {
	pass    *Pass
	info    *types.Info // nil for foreign syntax: fall back to name match
	ctxName string
}

// block returns (called, terminated): whether the fall-through path out
// of the list has passed a halt/send call, and whether no fall-through
// path exists (every path returned, panicked, or branched away).
func (h *haltScan) block(stmts []ast.Stmt, called bool) (bool, bool) {
	for _, s := range stmts {
		var terminated bool
		called, terminated = h.stmt(s, called)
		if terminated {
			return called, true
		}
	}
	return called, false
}

func (h *haltScan) stmt(s ast.Stmt, called bool) (bool, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if h.isHaltOrSend(s.X) {
			return true, false
		}
		if isPanic(s.X) {
			return called, true
		}
	case *ast.DeferStmt:
		// A deferred halt/send runs on every subsequent exit.
		if h.isHaltOrSendCall(s.Call) {
			return true, false
		}
	case *ast.ReturnStmt:
		if !called {
			h.pass.Reportf(s.Pos(), "Compute returns without ctx.VoteToHalt or a send on this path; SelectionBypass requires every vertex to vote to halt each superstep (paper §4)")
		}
		return called, true
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; treat the list
		// as ended. The enclosing loop/switch merge stays conservative.
		return called, true
	case *ast.BlockStmt:
		return h.block(s.List, called)
	case *ast.LabeledStmt:
		return h.stmt(s.Stmt, called)
	case *ast.IfStmt:
		return h.branches(called, [][]ast.Stmt{s.Body.List, elseStmts(s.Else)}, true)
	case *ast.SwitchStmt:
		return h.clauses(called, s.Body, !hasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		return h.clauses(called, s.Body, !hasDefault(s.Body))
	case *ast.SelectStmt:
		return h.clauses(called, s.Body, false)
	case *ast.ForStmt:
		bodyCalled, _ := h.block(s.Body.List, called)
		if s.Cond == nil && !hasBreak(s.Body) {
			return bodyCalled, true // for{}: never falls through
		}
		return called, false // body may run zero times
	case *ast.RangeStmt:
		h.block(s.Body.List, called) // body may run zero times
		return called, false
	}
	return called, false
}

// branches merges alternative statement lists: the continuation is
// "called" only if every branch that can fall through called, including
// the implicit empty branch when mayskip.
func (h *haltScan) branches(called bool, alts [][]ast.Stmt, _ bool) (bool, bool) {
	contCalled, anyCont := true, false
	for _, alt := range alts {
		if alt == nil {
			// implicit empty alternative (no else): falls through with
			// the incoming state
			anyCont = true
			contCalled = contCalled && called
			continue
		}
		c, t := h.block(alt, called)
		if !t {
			anyCont = true
			contCalled = contCalled && c
		}
	}
	if !anyCont {
		return called, true
	}
	return contCalled, false
}

func (h *haltScan) clauses(called bool, body *ast.BlockStmt, mayskip bool) (bool, bool) {
	var alts [][]ast.Stmt
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			alts = append(alts, c.Body)
		case *ast.CommClause:
			alts = append(alts, c.Body)
		}
	}
	if mayskip {
		alts = append(alts, nil)
	}
	return h.branches(called, alts, mayskip)
}

func elseStmts(s ast.Stmt) []ast.Stmt {
	switch s := s.(type) {
	case nil:
		return nil
	case *ast.BlockStmt:
		return s.List
	default: // else-if chain
		return []ast.Stmt{s}
	}
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// hasBreak reports whether the loop body contains an unlabeled break at
// its own level (not inside a nested loop/switch).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false // break in there targets that construct
		case *ast.BranchStmt:
			if n.Tok.String() == "break" {
				found = true
			}
		}
		return !found
	})
	return found
}

func (h *haltScan) isHaltOrSend(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && h.isHaltOrSendCall(call)
}

func (h *haltScan) isHaltOrSendCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "VoteToHalt", "Send", "Broadcast":
	default:
		return false
	}
	if h.info != nil {
		if tv, ok := h.info.Types[sel.X]; ok && tv.Type != nil {
			return isContextPtr(tv.Type)
		}
	}
	recv, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && recv.Name == h.ctxName
}

func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// calleeFunc resolves a call's target to a *types.Func (methods and
// plain functions), returning also the naming identifier.
func calleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, *ast.Ident) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	default:
		return nil, nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil, nil
	}
	return fn, id
}
