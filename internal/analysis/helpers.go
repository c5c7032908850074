package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// CorePath is the import path of the framework package whose contracts
// the analyzers enforce.
const CorePath = "ipregel/internal/core"

// coreNamed reports whether t (after unwrapping aliases) is the named
// type name from internal/core, at any generic instantiation.
func coreNamed(t types.Type, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == CorePath
}

// isContextPtr reports whether t is *core.Context[V, M].
func isContextPtr(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	return ok && coreNamed(p.Elem(), "Context")
}

// isVertex reports whether t is core.Vertex[V, M] (a value type).
func isVertex(t types.Type) bool { return coreNamed(t, "Vertex") }

// isHandle reports whether t is either per-superstep slot view.
func isHandle(t types.Type) bool { return isContextPtr(t) || isVertex(t) }

// coreFuncObj resolves the function called by call to a *types.Func
// declared in internal/core.
func coreFuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit instantiation: core.New[V, M](...)
		return coreFuncObj(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return coreFuncObj(info, &ast.CallExpr{Fun: fun.X})
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != CorePath {
		return nil
	}
	return fn
}

// engineCall recognises the engine constructors core.New(g, cfg, prog)
// and core.Run(g, cfg, prog), returning the cfg and prog argument
// expressions.
func engineCall(info *types.Info, call *ast.CallExpr) (cfg, prog ast.Expr, ok bool) {
	fn := coreFuncObj(info, call)
	if fn == nil || (fn.Name() != "New" && fn.Name() != "Run") || len(call.Args) != 3 {
		return nil, nil, false
	}
	return call.Args[1], call.Args[2], true
}

// resolveComposite chases expr to a composite literal: either expr is one
// directly, or it is a local variable whose initialising assignment in
// the enclosing function body is one. path is the ancestor chain of the
// expression's use site (innermost last), used to find the enclosing
// function.
func resolveComposite(info *types.Info, path []ast.Node, expr ast.Expr) *ast.CompositeLit {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return e
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			if lit, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				return lit
			}
		}
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return nil
		}
		fn := enclosingFuncBody(path)
		if fn == nil {
			return nil
		}
		var lit *ast.CompositeLit
		ast.Inspect(fn, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					if li, ok := lhs.(*ast.Ident); ok && (info.Defs[li] == obj || info.Uses[li] == obj) && i < len(st.Rhs) {
						if cl, ok := ast.Unparen(st.Rhs[i]).(*ast.CompositeLit); ok {
							lit = cl
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if info.Defs[name] == obj && i < len(st.Values) {
						if cl, ok := ast.Unparen(st.Values[i]).(*ast.CompositeLit); ok {
							lit = cl
						}
					}
				}
			}
			return true
		})
		return lit
	}
	return nil
}

// fieldValue returns the value bound to the named field in a (keyed)
// struct composite literal, or nil.
func fieldValue(lit *ast.CompositeLit, name string) ast.Expr {
	if lit == nil {
		return nil
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == name {
			return kv.Value
		}
	}
	return nil
}

// constBoolTrue reports whether expr is the constant true.
func constBoolTrue(info *types.Info, expr ast.Expr) bool {
	if expr == nil {
		return false
	}
	tv, ok := info.Types[expr]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.Bool && constant.BoolVal(tv.Value)
}

// enclosingFuncBody returns the body of the innermost function
// declaration or literal on path.
func enclosingFuncBody(path []ast.Node) *ast.BlockStmt {
	for i := len(path) - 1; i >= 0; i-- {
		switch fn := path[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// walkWithStack traverses every file, calling visit with each node and
// the ancestor chain leading to it (excluding the node itself).
func walkWithStack(files []*ast.File, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := visit(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// funcDecl finds fn's declaration among files by receiver type name and
// name, which stay stable across the loader's separately checked views of
// one package (object identity does not).
func funcDecl(files []*ast.File, fn *types.Func) *ast.FuncDecl {
	return funcDeclByName(files, recvName(fn), fn.Name())
}

// funcDeclByName finds a top-level declaration: a function when recv is
// "", else a method of the receiver type named recv.
func funcDeclByName(files []*ast.File, recv, name string) *ast.FuncDecl {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name && declRecvName(fd) == recv {
				return fd
			}
		}
	}
	return nil
}

// recvName is the receiver's type name of a method ("" for a function),
// pointer and type arguments erased.
func recvName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// declRecvName is recvName read from syntax.
func declRecvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
