package core

import (
	"strings"
	"testing"

	"ipregel/internal/graph"
)

// TestNewConstructionErrors pins every validation path of New to a
// distinct, recognisable message: a misconfiguration must fail at
// construction, before any superstep runs, and each failure must tell the
// user which module combination broke and what to use instead.
func TestNewConstructionErrors(t *testing.T) {
	okCompute := func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) { ctx.VoteToHalt(v) }
	okCombine := func(old *uint32, msg uint32) { *old += msg }

	noOut := func() *graph.Graph {
		g, err := ringGraph(4, 0).WithInEdges().StripOutAdjacency()
		if err != nil {
			t.Fatalf("StripOutAdjacency: %v", err)
		}
		return g
	}

	cases := []struct {
		name string
		g    *graph.Graph
		cfg  Config
		prog Program[uint32, uint32]
		want string
	}{
		{
			name: "nil Compute",
			g:    ringGraph(4, 0),
			prog: Program[uint32, uint32]{Combine: okCombine},
			want: "Program.Compute is required",
		},
		{
			name: "nil Combine",
			g:    ringGraph(4, 0),
			prog: Program[uint32, uint32]{Compute: okCompute},
			want: "Program.Combine is required",
		},
		{
			name: "pull combiner without in-edges",
			g:    ringGraph(4, 0).StripInEdges(),
			cfg:  Config{Direction: DirectionPull},
			prog: Program[uint32, uint32]{Compute: okCompute, Combine: okCombine},
			want: "pull-direction supersteps fetch from in-neighbours",
		},
		{
			name: "unknown direction",
			g:    ringGraph(4, 0),
			cfg:  Config{Direction: Direction(97)},
			prog: Program[uint32, uint32]{Compute: okCompute, Combine: okCombine},
			want: "unknown direction",
		},
		{
			name: "selection bypass without out-adjacency",
			g:    noOut(),
			cfg:  Config{SelectionBypass: true},
			prog: Program[uint32, uint32]{Compute: okCompute, Combine: okCombine},
			want: "selection bypass enrols out-neighbours",
		},
		{
			name: "negative threads",
			g:    ringGraph(4, 0),
			cfg:  Config{Threads: -3},
			prog: Program[uint32, uint32]{Compute: okCompute, Combine: okCombine},
			want: "Config.Threads is -3",
		},
		{
			name: "unknown combiner",
			g:    ringGraph(4, 0),
			cfg:  Config{Combiner: Combiner(97)},
			prog: Program[uint32, uint32]{Compute: okCompute, Combine: okCombine},
			want: "unknown combiner",
		},
	}

	seen := map[string]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.g, tc.cfg, tc.prog)
			if err == nil {
				t.Fatalf("New succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			// Each misconfiguration must be distinguishable from the
			// others by message alone.
			if prev, dup := seen[err.Error()]; dup {
				t.Fatalf("error message %q duplicates case %q", err, prev)
			}
			seen[err.Error()] = tc.name
		})
	}
}

// TestVersionNameSeparatesModuleVersions: Report.Version, trace events
// and benchmark names identify a run by Config.VersionName, so two
// configurations that build different engines — combiner, direction,
// selection — must not share a name. A pull-only engine builds the plain
// inbox whatever Combiner says, so its rows share "broadcast" by design.
func TestVersionNameSeparatesModuleVersions(t *testing.T) {
	type modules struct {
		Combiner  Combiner
		Direction Direction
		Bypass    bool
	}
	seen := map[string]modules{}
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin} {
		for _, dir := range []Direction{DirectionPush, DirectionPull, DirectionAdaptive} {
			for _, bypass := range []bool{false, true} {
				m := modules{comb, dir, bypass}
				if dir == DirectionPull {
					m.Combiner = CombinerMutex // ignored: the plain inbox
				}
				name := Config{Combiner: comb, Direction: dir, SelectionBypass: bypass}.VersionName()
				if other, dup := seen[name]; dup && other != m {
					t.Fatalf("VersionName %q names both %+v and %+v", name, other, m)
				}
				seen[name] = m
			}
		}
	}
}
