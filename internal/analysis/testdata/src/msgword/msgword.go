// Fixture for the msgword analyzer: CombinerAtomic paired with message
// types the CAS mailbox cannot pack into a machine word.
package msgword

import (
	"ipregel/internal/core"
	"ipregel/internal/graph"
)

type pair struct{ a, b float64 }

// myInt32 has a word-sized underlying type, but the engine's runtime
// eligibility switch matches exact types — named types do not qualify.
type myInt32 int32

func directLiteral(g *graph.Graph) {
	_, _ = core.New(g, core.Config{Combiner: core.CombinerAtomic}, core.Program[int, pair]{}) // want `CombinerAtomic requires a word-sized message type`
}

func viaLocalConfig(g *graph.Graph) {
	cfg := core.Config{Combiner: core.CombinerAtomic, SelectionBypass: true}
	_, _ = core.New(g, cfg, core.Program[int, myInt32]{}) // want `message type fixture/msgword\.myInt32 cannot be packed`
}

func viaRun(g *graph.Graph) {
	_, _, _ = core.Run(g, core.Config{Combiner: core.CombinerAtomic}, core.Program[int, string]{}) // want `CombinerAtomic requires a word-sized message type`
}

func wordSizedOK(g *graph.Graph) {
	_, _ = core.New(g, core.Config{Combiner: core.CombinerAtomic}, core.Program[int, float64]{})
	_, _ = core.New(g, core.Config{Combiner: core.CombinerAtomic}, core.Program[int, uint32]{})
}

func otherCombinerOK(g *graph.Graph) {
	// The mutex combiner copes with any message type.
	_, _ = core.New(g, core.Config{Combiner: core.CombinerMutex}, core.Program[int, pair]{})
}
