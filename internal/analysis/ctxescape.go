package analysis

import (
	"go/ast"
	"go/types"
)

// CtxEscape flags *core.Context and core.Vertex values escaping the
// Compute call they were handed to. Both are slot views over the
// engine's per-superstep arrays: a Context is one worker's superstep
// buffers, a Vertex is a (engine, slot) pair whose meaning depends on
// the current superstep's buffer orientation. Storing either beyond the
// current call — in a struct field, a package variable, a channel, or a
// goroutine that outlives the call — reads stale or foreign slots later,
// without any runtime fence to catch it.
var CtxEscape = &Analyzer{
	Name: "ctxescape",
	Doc: `flag Context/Vertex handles escaping the Compute call

*core.Context[V, M] and core.Vertex[V, M] are per-superstep slot views,
valid only inside the Compute invocation they were passed to. This
analyzer reports them being stored into struct fields (including
composite literals), package variables, channels, and goroutine
closures or arguments, in whichever function does it: a helper that
parks the handle it was passed is reported in the helper. A handle
passed as an interface argument is reported at the call, since its
type, and with it this check, ends there.`,
	Run: runCtxEscape,
}

func runCtxEscape(pass *Pass) error {
	if pass.Pkg != nil && pass.Pkg.Path() == CorePath {
		// The framework itself constructs and owns these handles.
		return nil
	}
	info := pass.TypesInfo
	handleType := func(e ast.Expr) types.Type {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil || !isHandle(tv.Type) {
			return nil
		}
		return tv.Type
	}

	inspectFiles(pass.Files, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				t := handleType(n.Rhs[i])
				if t == nil {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
						pass.Reportf(n.Rhs[i].Pos(), "%s stored into struct field %s: the handle is a per-superstep slot view and must not outlive the Compute call", t, l.Sel.Name)
					}
				case *ast.Ident:
					if obj := info.Uses[l]; obj != nil && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(n.Rhs[i].Pos(), "%s stored into package variable %s: the handle is a per-superstep slot view and must not outlive the Compute call", t, l.Name)
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if t := handleType(val); t != nil {
					pass.Reportf(val.Pos(), "%s stored into a composite literal: the handle is a per-superstep slot view and must not outlive the Compute call", t)
				}
			}
		case *ast.SendStmt:
			if t := handleType(n.Value); t != nil {
				pass.Reportf(n.Value.Pos(), "%s sent on a channel: the handle is a per-superstep slot view and the receiver may use it after the Compute call returned", t)
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if t := handleType(arg); t != nil {
					pass.Reportf(arg.Pos(), "%s passed to a goroutine: the handle is a per-superstep slot view and the goroutine may outlive the Compute call", t)
				}
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				reportCaptures(pass, lit)
			}
		case *ast.CallExpr:
			// A handle passed as an interface value leaves the types
			// this analyzer follows: the callee may park it anywhere.
			sig, ok := types.Unalias(info.TypeOf(n.Fun)).(*types.Signature)
			if !ok {
				return true // a conversion
			}
			for i, arg := range n.Args {
				param := sig.Params().At(min(i, sig.Params().Len()-1)).Type()
				if s, ok := param.(*types.Slice); ok && sig.Variadic() && i >= sig.Params().Len()-1 {
					param = s.Elem()
				}
				if t := handleType(arg); t != nil && types.IsInterface(param) {
					pass.Reportf(arg.Pos(), "%s converted to an interface value: the callee may store it, and the handle is a per-superstep slot view that must not outlive the Compute call", t)
				}
			}
		}
		return true
	})
	return nil
}

// reportCaptures flags handle-typed variables a goroutine's function
// literal captures from its enclosing scope.
func reportCaptures(pass *Pass, lit *ast.FuncLit) {
	info := pass.TypesInfo
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] || !isHandle(obj.Type()) {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the literal: not a capture
		}
		seen[obj] = true
		pass.Reportf(id.Pos(), "%s captured by a goroutine closure: the handle is a per-superstep slot view and the goroutine may outlive the Compute call", obj.Type())
		return true
	})
}
