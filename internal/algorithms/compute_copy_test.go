package algorithms_test

import (
	"reflect"
	"regexp"
	"runtime"
	"testing"

	"ipregel/internal/algorithms"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

// TestProgramComputeCompiledOnce calls every exported *Program
// constructor of internal/algorithms and of the Pregel+ baseline from
// outside its package, as the front ends do, and requires the Compute it
// returns to be the package's own literal, <package>.<Name>Program.funcN.
// A constructor inlined into its caller compiles a second copy of the
// literal there (named after the caller), and in that copy gc inlines
// none of the Context and Vertex methods.
func TestProgramComputeCompiledOnce(t *testing.T) {
	for name, compute := range map[string]any{
		"algorithms.PageRank":          algorithms.PageRankProgram(3).Compute,
		"algorithms.PageRankConverged": algorithms.PageRankConvergedProgram(1e-6).Compute,
		"algorithms.Hashmin":           algorithms.HashminProgram().Compute,
		"algorithms.SSSP":              algorithms.SSSPProgram(1).Compute,
		"algorithms.BFS":               algorithms.BFSProgram(1).Compute,
		"algorithms.Reach64":           algorithms.Reach64Program([]graph.VertexID{1, 2}).Compute,
		"algorithms.WeightedSSSP":      algorithms.WeightedSSSPProgram(1).Compute,
		"pregelplus.PageRank":          pregelplus.PageRankProgram(3).Compute,
		"pregelplus.Hashmin":           pregelplus.HashminProgram().Compute,
		"pregelplus.SSSP":              pregelplus.SSSPProgram(1).Compute,
	} {
		got := runtime.FuncForPC(reflect.ValueOf(compute).Pointer()).Name()
		want := regexp.MustCompile(`^ipregel/internal/` + regexp.QuoteMeta(name) + `Program\.func\d+$`)
		if !want.MatchString(got) {
			t.Errorf("%sProgram's Compute is %s, want the package's own ipregel/internal/%sProgram.funcN", name, got, name)
		}
	}
}
