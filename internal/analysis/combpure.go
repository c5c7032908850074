package analysis

import (
	"go/ast"
	"go/token"
)

// CombPure enforces combiner determinism, the property that makes
// one-thread-vs-many parity provable (TestThreadsParityTable relies on
// it): a CombineFunc may run any number of times for one logical
// message (the atomic inbox's CAS retries) and in any interleaving, so
// besides not sending
// (sendphase's domain) it must not write state it did not receive as an
// argument, and must not consult nondeterminism sources. It reports,
// through any chain of module-internal calls: writes to captured
// variables, writes to package-level variables, ranges over maps
// (iteration order), and calls into time/math/rand. (Named aggregators
// reduce with operator constants — core.AggOp — and carry no user code;
// functional reducers, if ever added, register here too.)
var CombPure = &Analyzer{
	Name: "combpure",
	Doc: `flag combiner hooks that write external state, range over maps, or call time/rand

Functions used as core.Program.Combine or converted to core.CombineFunc
must be deterministic pure reductions of their two arguments. This
analyzer follows the combiner through module-internal calls and reports
writes to captured or package-level variables, map ranges (iteration
order is nondeterministic), and calls to time.Now/Sleep/... or any
math/rand function. Cross-package impurities are reported at the
combiner registration site.`,
	Run: runCombPure,
}

// combinerRoots collects every expression registered as a combiner in
// the target: Program{Combine: f} literals, core.CombineFunc[T](f)
// conversions, and CombineFunc-typed variable declarations. Shared with
// sendphase.
func combinerRoots(pass *Pass) []ast.Expr {
	info := pass.TypesInfo
	var roots []ast.Expr
	walkWithStack(pass.Files, func(n ast.Node, _ []ast.Node) bool {
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
	sub, err := pass.Substrate()
	if err != nil {
		return err
	}
	reported := map[string]bool{} // one report set per named combiner ref
	for _, root := range combinerRoots(pass) {
		switch e := ast.Unparen(root).(type) {
		case *ast.FuncLit:
			sum := pass.SummarizeBody(e)
			pass.reportImpurities(sum, e.Pos(), true)
			for _, reached := range sub.Reach(sum.Calls) {
				pass.reportReached(reached, e.Pos(), reported)
			}
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.IndexListExpr:
			// calleeFunc unwraps an explicit instantiation, f[T], to f.
			fn, _ := calleeFunc(pass.TypesInfo, &ast.CallExpr{Fun: e})
			ref := FuncRef(fn)
			if ref == "" || sub.Func(ref) == nil {
				continue
			}
			for _, reached := range sub.Reach([]string{ref}) {
				pass.reportReached(reached, root.Pos(), reported)
			}
		}
	}
	return nil
}

// reportReached reports one reached function's impurities: at the fact
// position when the function lives in the target's own files (the finding
// is locally suppressible), else once per ref at the registration site.
func (pass *Pass) reportReached(sum *FuncSummary, rootPos token.Pos, reported map[string]bool) {
	if pass.ownsPos(sum.Pos) {
		if !reported[sum.Ref] {
			reported[sum.Ref] = true
			pass.reportImpurities(sum, rootPos, true)
		}
		return
	}
	key := sum.Ref + "@cross"
	if reported[key] {
		return
	}
	reported[key] = true
	pass.reportImpurities(sum, rootPos, false)
}

// reportImpurities emits combpure findings from one summary. own selects
// in-place reporting (at each fact's position) versus registration-site
// reporting naming the offending function.
func (pass *Pass) reportImpurities(sum *FuncSummary, rootPos token.Pos, own bool) {
	const contract = "combiners must be deterministic pure reductions of their arguments (they may run any number of times, concurrently)"
	report := func(facts []Fact, note string) {
		for _, f := range facts {
			what := f.What
			if note != "" {
				what += " (" + note + ")"
			}
			if own {
				pass.Reportf(f.Pos, "combine function %s: %s", what, contract)
			} else {
				pass.Reportf(rootPos, "combiner reaches %s, which %s: %s", sum.Name, what, contract)
			}
		}
	}
	report(sum.CapturedWrites, "")
	report(sum.PkgVarWrites, "")
	report(sum.MapRanges, "iteration order is nondeterministic")
	report(sum.TimeRandCalls, "")
}
