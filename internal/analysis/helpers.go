package analysis

import (
	"go/ast"
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

// fieldValue returns the value bound to the named field in a (keyed)
// struct composite literal, or nil.
func fieldValue(lit *ast.CompositeLit, name string) ast.Expr {
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

// inspectFiles traverses every file in depth-first order, as
// ast.Inspect does for one.
func inspectFiles(files []*ast.File, visit func(n ast.Node) bool) {
	for _, f := range files {
		ast.Inspect(f, visit)
	}
}

// funcDecl finds fn's top-level declaration among files by receiver type
// name ("" for a function) and name, which stay stable across the
// loader's separately checked views of one package (object identity does
// not).
func funcDecl(files []*ast.File, fn *types.Func) *ast.FuncDecl {
	recv := recvName(fn)
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn.Name() && declRecvName(fd) == recv {
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
