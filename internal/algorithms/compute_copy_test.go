package algorithms_test

import (
	"reflect"
	"regexp"
	"runtime"
	"testing"

	"ipregel/internal/algorithms"
	"ipregel/internal/graph"
)

// TestProgramComputeCompiledOnce calls every exported *Program
// constructor from outside the package, as the front ends do, and
// requires the Compute it returns to be the package's own literal,
// algorithms.<Name>Program.funcN. A constructor inlined into its caller
// compiles a second copy of the literal there (named after the caller),
// and in that copy gc inlines none of the Context and Vertex methods.
func TestProgramComputeCompiledOnce(t *testing.T) {
	for name, compute := range map[string]any{
		"PageRank":          algorithms.PageRankProgram(3).Compute,
		"PageRankConverged": algorithms.PageRankConvergedProgram(1e-6).Compute,
		"Hashmin":           algorithms.HashminProgram().Compute,
		"SSSP":              algorithms.SSSPProgram(1).Compute,
		"BFS":               algorithms.BFSProgram(1).Compute,
		"Reach64":           algorithms.Reach64Program([]graph.VertexID{1, 2}).Compute,
		"WeightedSSSP":      algorithms.WeightedSSSPProgram(1).Compute,
	} {
		got := runtime.FuncForPC(reflect.ValueOf(compute).Pointer()).Name()
		want := regexp.MustCompile(`^ipregel/internal/algorithms\.` + name + `Program\.func\d+$`)
		if !want.MatchString(got) {
			t.Errorf("%sProgram's Compute is %s, want the package's own ipregel/internal/algorithms.%sProgram.funcN", name, got, name)
		}
	}
}
