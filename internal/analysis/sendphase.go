package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SendPhase enforces combiner purity. A CombineFunc runs inside message
// delivery — under the destination mailbox's lock, inside a CAS retry
// loop, or during the pull collect phase — and may run any number of
// times for the same logical message (the CAS loop retries, sender
// caches pre-combine). Calling Send or Broadcast from one would deliver
// recursively from inside delivery: re-entrant locking on the mutex
// combiner, unbounded retry amplification on the atomic one, and a data
// race on the pull combiner's owner-only write phase.
var SendPhase = &Analyzer{
	Name: "sendphase",
	Doc: `flag Send/Broadcast calls reachable from combine functions

Functions used as core.Program.Combine or converted to core.CombineFunc
must be pure reductions of their two arguments. This analyzer reports
ctx.Send and ctx.Broadcast calls lexically inside such functions and
inside same-package functions they call; calls that leave the package
are followed through the interprocedural substrate's call graph, with
the finding reported at the registration site. (Named aggregators
reduce with operator constants — core.AggOp — and carry no user code;
if functional reducers are ever added, their registration sites belong
here too.)`,
	Run: runSendPhase,
}

func runSendPhase(pass *Pass) error {
	visited := map[any]bool{}
	for _, root := range combinerRoots(pass) {
		pass.scanCombinerPurity(root, visited)
	}
	return nil
}

// scanCombinerPurity resolves fn to a body in this package and reports
// Send/Broadcast calls inside it, recursing into same-package callees;
// cross-package combiners are checked through the substrate's call graph
// and reported at the reference site.
func (pass *Pass) scanCombinerPurity(fn ast.Expr, visited map[any]bool) {
	switch e := ast.Unparen(fn).(type) {
	case *ast.FuncLit:
		pass.scanCombinerBody(e, e.Body, visited)
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.IndexListExpr:
		f, _ := calleeFunc(pass.TypesInfo, &ast.CallExpr{Fun: e})
		if f == nil {
			return // unresolvable reference
		}
		if f.Pkg() != pass.Pkg {
			pass.reportCrossPackageSend(e.Pos(), f, visited)
			return
		}
		if decl := funcDeclByName(pass.Files, f.Name()); decl != nil && decl.Body != nil {
			pass.scanCombinerBody(decl, decl.Body, visited)
		}
	}
}

// reportCrossPackageSend consults the substrate for Send/Broadcast calls
// reachable from a function outside the target package, reporting at pos
// (the combiner reference or call site inside the combiner).
func (pass *Pass) reportCrossPackageSend(pos token.Pos, f *types.Func, visited map[any]bool) {
	if f.Pkg() != nil && f.Pkg().Path() == CorePath {
		return // framework entry points (ctx methods themselves) are not combiner bodies
	}
	ref := FuncRef(f)
	if ref == "" {
		return
	}
	if visited["send:"+ref] {
		return
	}
	visited["send:"+ref] = true
	sub, err := pass.Substrate()
	if err != nil {
		return
	}
	if _, ok := sub.SendReachable(ref); ok {
		pass.Reportf(pos, "combine function reaches Send/Broadcast through %s: combiners run inside message delivery (under the mailbox lock / CAS loop) and must be pure reductions of their arguments", shortRef(ref))
	}
}

func (pass *Pass) scanCombinerBody(node ast.Node, body *ast.BlockStmt, visited map[any]bool) {
	if visited[node] {
		return
	}
	visited[node] = true
	info := pass.TypesInfo

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Send" || sel.Sel.Name == "Broadcast" {
				if tv, ok := info.Types[sel.X]; ok && isContextPtr(tv.Type) {
					pass.Reportf(call.Pos(), "%s called from a combine function: combiners run inside message delivery (under the mailbox lock / CAS loop) and must be pure reductions of their arguments", sel.Sel.Name)
					return true
				}
			}
		}
		// Follow same-package callees lexically — a send hidden one call
		// deep is just as re-entrant — and cross-package callees through
		// the substrate's call graph.
		if f, _ := calleeFunc(info, call); f != nil {
			if f.Pkg() == pass.Pkg {
				if decl := funcDeclByName(pass.Files, f.Name()); decl != nil && decl.Body != nil {
					pass.scanCombinerBody(decl, decl.Body, visited)
				}
			} else {
				pass.reportCrossPackageSend(call.Pos(), f, visited)
			}
		}
		return true
	})
}
