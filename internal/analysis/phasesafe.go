package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PhaseSafe is the interprocedural generalization of ctxescape, guarding
// the two sides of the engine's phase discipline:
//
//  1. Context and Vertex are slot views valid only inside the current
//     Compute call. ctxescape catches a handle stored or captured in the
//     body it can see; phasesafe follows the handle through calls — a
//     helper that takes a ctx and parks it in a struct field, or hands it
//     to a goroutine three frames down, leaks the same dangling view.
//     Every call site passing a handle to a function whose parameter
//     (transitively) escapes into a goroutine or heap store is reported.
//
//  2. //ipregel:phase asserts a function runs only in the single-threaded
//     barrier section between the workers' join and the next dispatch
//     (atomicfield grants plain-access exemptions on that assertion).
//     phasesafe verifies it: a phase-marked function reachable from any
//     `go` statement in non-test module code — the engine's fork-join
//     dispatch, a service worker — contradicts its own directive.
var PhaseSafe = &Analyzer{
	Name: "phasesafe",
	Doc: `flag handle flows into escaping callees and goroutine-reachable phase functions

A *core.Context or core.Vertex argument passed to a function whose
parameter escapes — into a goroutine literal, struct field, package
variable, channel, or composite literal, through any chain of
module-internal calls — is reported at the call site: the handle is a
per-superstep slot view and must not outlive the Compute call that
received it. Independently, a function marked //ipregel:phase <reason>
that is reachable from a go statement in non-test module code is
reported: the directive asserts barrier-section-only execution, and
atomicfield's plain-access exemptions rest on that assertion.
internal/core itself is exempt from the handle-flow check (it
constructs the handles).`,
	Run: runPhaseSafe,
}

func runPhaseSafe(pass *Pass) error {
	sub, err := pass.Substrate()
	if err != nil {
		return err
	}

	// Side 2: phase-marked functions must not be goroutine-reachable.
	goReach := sub.GoroutineReachable()
	pkgPath := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	sub.Funcs(func(sum *FuncSummary) {
		if !sum.Phase || !strings.HasPrefix(sum.Ref, pkgPath+".") || !pass.ownsPos(sum.Pos) {
			return
		}
		if goReach[sum.Ref] {
			pass.Reportf(sum.Pos, "%s is marked //ipregel:phase but is reachable from a goroutine spawn: the directive asserts single-threaded barrier-section execution, and atomicfield's plain-access exemptions depend on it", sum.Name)
		}
	})

	// Side 1: handle arguments flowing into escaping parameters. The
	// framework package constructs and owns the handles; like ctxescape,
	// the flow check applies to user code.
	if pkgPath == CorePath {
		return nil
	}
	info := pass.TypesInfo
	walkWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, _ := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		ref := FuncRef(fn)
		if ref == "" || sub.Func(ref) == nil {
			return true // not a module function we have a summary for
		}
		sig, _ := fn.Type().(*types.Signature)
		recvOffset := 0
		if sig != nil && sig.Recv() != nil {
			recvOffset = 1
		}
		for ai, arg := range call.Args {
			tv, ok := info.Types[arg]
			if !ok || !isHandle(tv.Type) {
				continue
			}
			nParams := 0
			if sig != nil {
				nParams = sig.Params().Len()
			}
			if ai >= nParams {
				continue // variadic overflow: no per-parameter summary slot
			}
			esc := sub.ParamEscape(ref, ai+recvOffset)
			if esc == nil {
				continue
			}
			handle := "Context"
			if isVertex(tv.Type) {
				handle = "Vertex"
			}
			via := ""
			if len(esc.Via) > 0 {
				short := make([]string, len(esc.Via))
				for i, v := range esc.Via {
					short[i] = shortRef(v)
				}
				via = " via " + strings.Join(short, " -> ")
			}
			pass.Reportf(arg.Pos(), "%s handle passed to %s, where it escapes into %s%s (%s): handles are per-superstep slot views and must not outlive the Compute call", handle, shortRef(ref), esc.Kind, via, esc.Detail)
		}
		return true
	})
	return nil
}
