package algorithms

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

// Cross-engine equivalence property. The program family is "potential
// propagation": every vertex starts with a random potential h(id) and the
// fixpoint is
//
//	val[v] = min( h(v), min over edges (u,v) of val[u] + w(u) )
//
// with a per-vertex offset w(u) ≥ 1. It generalises both Hashmin (w = 0)
// and SSSP (single finite potential, w = 1), terminates like Bellman-Ford
// (every update strictly decreases a value bounded below), votes to halt
// every superstep (bypass-compatible) and is broadcast-only
// (pull-compatible) — so a single random instance can be executed by
// every engine version and every framework in the repository and must
// produce identical results.

func mix(seed int64, id uint32) uint32 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return uint32(x)
}

func potential(seed int64, id uint32) uint32 { return mix(seed, id) % 100_000 }
func offset(seed int64, id uint32) uint32    { return 1 + mix(seed+1, id)%16 }

// refPotential is the Bellman-Ford oracle.
func refPotential(g *graph.Graph, seed int64) []uint32 {
	n := g.N()
	val := make([]uint32, n)
	for i := range val {
		val[i] = potential(seed, uint32(g.ExternalID(i)))
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			cand := val[u] + offset(seed, uint32(g.ExternalID(u)))
			for _, v := range g.OutNeighbors(u) {
				if cand < val[v] {
					val[v] = cand
					changed = true
				}
			}
		}
	}
	return val
}

func potentialProgram(seed int64) core.Program[uint32, uint32] {
	return core.Program[uint32, uint32]{
		Combine: core.Min,
		Compute: func(ctx *core.Context[uint32, uint32], v core.Vertex[uint32, uint32]) {
			val := v.Value()
			improved := false
			if ctx.IsFirstSuperstep() {
				*val = potential(seed, uint32(v.ID()))
				improved = true
			}
			var m uint32
			for ctx.NextMessage(v, &m) {
				if m < *val {
					*val = m
					improved = true
				}
			}
			if improved {
				ctx.Broadcast(v, *val+offset(seed, uint32(v.ID())))
			}
			ctx.VoteToHalt(v)
		},
	}
}

func potentialProgramPP(seed int64) pregelplus.Program[uint32, uint32] {
	return pregelplus.Program[uint32, uint32]{
		Combine: core.Min,
		Compute: func(ctx *pregelplus.Context[uint32, uint32], v *pregelplus.Vertex[uint32, uint32]) {
			improved := false
			if ctx.Superstep() == 0 {
				v.Value = potential(seed, uint32(v.ID))
				improved = true
			}
			for _, m := range v.Messages() {
				if m < v.Value {
					v.Value = m
					improved = true
				}
			}
			if improved {
				ctx.Broadcast(v, v.Value+offset(seed, uint32(v.ID)))
			}
			ctx.VoteToHalt(v)
		},
	}
}

func randomGraphForCross(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var b graph.Builder
	b.ForceN = n
	b.SetBase(1)
	b.BuildInEdges()
	for i := 0; i < m; i++ {
		b.AddEdge(graph.VertexID(1+rng.Intn(n)), graph.VertexID(1+rng.Intn(n)))
	}
	return b.MustBuild()
}

func TestCrossEngineEquivalenceProperty(t *testing.T) {
	f := func(seedRaw int16, nRaw, mRaw uint8) bool {
		seed := int64(seedRaw)
		n := int(nRaw%50) + 2
		m := int(mRaw % 250)
		g := randomGraphForCross(seed, n, m)
		want := refPotential(g, seed)

		check := func(got []uint32, label string) bool {
			for i := range want {
				if got[i] != want[i] {
					t.Logf("seed=%d n=%d m=%d %s: val[%d]=%d want %d", seed, n, m, label, i, got[i], want[i])
					return false
				}
			}
			return true
		}

		// All six iPregel versions, varying threads.
		for vi, cfg := range core.AllVersions() {
			cfg.Threads = 1 + vi%3
			cfg.CheckInvariants = true
			e, _, err := core.Run(g, cfg, potentialProgram(seed))
			if err != nil {
				t.Logf("%s: %v", cfg.VersionName(), err)
				return false
			}
			if !check(e.ValuesDense(), "ipregel/"+cfg.VersionName()) {
				return false
			}
		}

		// Both lock-based inboxes, with and without bypass, at two to four
		// threads.
		for vi, cfg := range []core.Config{
			{Combiner: core.CombinerMutex},
			{Combiner: core.CombinerSpin, SelectionBypass: true},
			{Combiner: core.CombinerSpin},
			{Combiner: core.CombinerMutex, SelectionBypass: true},
		} {
			cfg.Threads = 2 + vi%3
			cfg.CheckInvariants = true
			e, _, err := core.Run(g, cfg, potentialProgram(seed))
			if err != nil {
				t.Logf("%s: %v", cfg.VersionName(), err)
				return false
			}
			if !check(e.ValuesDense(), "ipregel/"+cfg.VersionName()) {
				return false
			}
		}

		// Pregel+ at two deployment sizes, with and without combiner.
		for _, cc := range []pregelplus.ClusterConfig{
			{Nodes: 1, ProcsPerNode: 2},
			{Nodes: 4, ProcsPerNode: 2, DisableCombiner: true},
		} {
			cl, err := pregelplus.NewCluster(g, cc, potentialProgramPP(seed), pregelplus.Uint32Codec{})
			if err != nil {
				return false
			}
			if _, err := cl.Run(); err != nil {
				return false
			}
			if !check(cl.ValuesDense(), "pregelplus") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
