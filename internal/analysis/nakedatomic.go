package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicDirective marks a slice-typed struct field whose elements are
// concurrently accessed and must therefore only be touched through
// sync/atomic (by taking an element's address and handing it to an
// atomic operation). internal/core marks the pull-enrolment flags this
// way; scalar fields shared across goroutines are sync/atomic types
// instead, whose plain access the compiler rejects.
const atomicDirective = "ipregel:atomic"

// NakedAtomic enforces the memory discipline of CASed flag arrays: the
// pull enrolment flags are test-and-CASed by concurrent broadcasters, so
// a plain element load or store is a data race — one -race may or may
// not catch, depending on scheduling. A field becomes atomic by
// declaration, never by inference: a sync/atomic call on an undeclared
// field is itself a finding, because nothing would check that field's
// other accesses.
var NakedAtomic = &Analyzer{
	Name: "nakedatomic",
	Doc: `flag plain element access of //ipregel:atomic fields, and sync/atomic calls on undeclared ones

Struct fields documented with an //ipregel:atomic directive may only
have their elements accessed by address (&f[i], for passing to
sync/atomic) — a bare f[i] read, write, or range is reported. Whole-
field operations (swap, make, len, clear) remain free: the protocol
constrains element access, not the slice header. A sync/atomic call on
the address of a field that is not so declared is reported too: a scalar
field (&x.f) should be a typed atomic (atomic.Uint64, ...), whose plain
access the compiler rejects; a slice element (&x.f[i]) needs the
directive on its field, or a typed-atomic element type. The directive is
scoped to the declaring package, matching the fields' unexported
visibility.`,
	Run: runNakedAtomic,
}

func runNakedAtomic(pass *Pass) error {
	info := pass.TypesInfo
	marked := markedFields(pass.Files)
	walkWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		field := info.Selections[sel]
		if field == nil || field.Kind() != types.FieldVal || field.Obj().Pkg() != pass.Pkg {
			return true
		}
		isMarked := marked[field.Obj().Pos()]
		switch p := stack[len(stack)-1].(type) {
		case *ast.UnaryExpr:
			if p.Op == token.AND && atomicArg(info, stack[:len(stack)-1], p) {
				pass.Reportf(p.Pos(), "sync/atomic call on field %s: declare it a typed atomic (atomic.Uint32, atomic.Uint64, ...) so the compiler rejects its plain accesses", sel.Sel.Name)
			}
		case *ast.IndexExpr:
			if p.X != sel {
				return true // the field is the index, not the indexee
			}
			if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND {
				// &f[i]: the address taken for a sync/atomic call.
				if !isMarked && atomicArg(info, stack[:len(stack)-2], u) {
					pass.Reportf(u.Pos(), "sync/atomic call on an element of %s, which is not marked //ipregel:atomic: mark the field so its plain element accesses are reported, or use a typed-atomic element type", sel.Sel.Name)
				}
				return true
			}
			if isMarked {
				pass.Reportf(p.Pos(), "element of %s accessed without sync/atomic: the field is marked //ipregel:atomic (concurrent CAS protocol); take the element's address and use atomic.Load/Store/CompareAndSwap", sel.Sel.Name)
			}
		case *ast.RangeStmt:
			// An index-only range (`for i := range f`) reads no elements
			// and stays legal; binding the element value is a plain load.
			if isMarked && p.X == sel && p.Value != nil {
				pass.Reportf(p.Pos(), "range over %s performs plain element loads: the field is marked //ipregel:atomic (concurrent CAS protocol); index it and use atomic loads", sel.Sel.Name)
			}
		}
		return true
	})
	return nil
}

// markedFields returns the declaring positions of the struct fields in
// files that carry the //ipregel:atomic directive; a selection's field
// object reports the same position.
func markedFields(files []*ast.File) map[token.Pos]bool {
	out := map[token.Pos]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if directiveOn([]*ast.CommentGroup{field.Doc, field.Comment}, atomicDirective) {
					for _, name := range field.Names {
						out[name.Pos()] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// atomicArg reports whether addr (&f or &f[i]) is an argument of a direct
// sync/atomic call, the last node of stack.
func atomicArg(info *types.Info, stack []ast.Node, addr ast.Expr) bool {
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, _ := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, arg := range call.Args {
		if arg == addr {
			return true
		}
	}
	return false
}
