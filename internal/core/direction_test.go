package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"ipregel/internal/graph"
)

func TestParseDirection(t *testing.T) {
	cases := []struct {
		in   string
		want Direction
	}{
		{"", DirectionPush},
		{"push", DirectionPush},
		{"pull", DirectionPull},
		{"adaptive", DirectionAdaptive},
	}
	for _, tc := range cases {
		got, err := ParseDirection(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseDirection(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseDirection("sideways"); err == nil || !strings.Contains(err.Error(), "unknown direction") {
		t.Fatalf("ParseDirection(sideways) err = %v, want unknown-direction error", err)
	}
	for _, d := range []Direction{DirectionPush, DirectionPull, DirectionAdaptive} {
		if rt, err := ParseDirection(d.String()); err != nil || rt != d {
			t.Fatalf("round-trip %v -> %q -> %v, %v", d, d.String(), rt, err)
		}
	}
}

func TestVersionNameDirection(t *testing.T) {
	if name := (Config{Direction: DirectionAdaptive}).VersionName(); !strings.Contains(name, "adaptive") {
		t.Fatalf("VersionName %q does not name the adaptive direction", name)
	}
	// A pull-only engine is the paper's broadcast version whatever its
	// Combiner: it builds the plain inbox.
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin} {
		if name := (Config{Combiner: comb, Direction: DirectionPull}).VersionName(); name != "broadcast" {
			t.Fatalf("%s pull-only VersionName = %q, want broadcast", comb, name)
		}
	}
	if name := (Config{}).VersionName(); strings.Contains(name, "push") {
		t.Fatalf("default VersionName %q should not name a direction", name)
	}
}

// cellName names a test cell by the Config as written. VersionName calls
// every pull-only engine "broadcast", since it builds the plain inbox
// whatever Combiner says; the cell name keeps the Combiner the row set.
func cellName(cfg Config) string {
	if cfg.Direction != DirectionPull {
		return cfg.VersionName()
	}
	name := cfg.Combiner.String() + "+pull"
	if cfg.SelectionBypass {
		name += "+bypass"
	}
	return name
}

// TestPullOnlyBuildsPlainInbox pins the broadcast version's inbox: a
// pull-only engine's every deposit is a collect by the slot's one owner,
// so at any thread count and under any Combiner it builds the lock-free
// plain inbox and weighs what the one-thread engine does. An adaptive
// engine still builds the configured inbox for its push supersteps.
func TestPullOnlyBuildsPlainInbox(t *testing.T) {
	g := ringGraph(512, 1)
	build := func(cfg Config) (e *Engine[uint32, uint32], plain bool) {
		t.Helper()
		e, err := New(g, cfg, counterProgram(1))
		if err != nil {
			t.Fatal(err)
		}
		_, plain = e.mb.(*plainMailbox[uint32])
		return e, plain
	}
	one, _ := build(Config{Direction: DirectionPull, Threads: 1})
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin} {
		for _, threads := range []int{1, 2, 4} {
			cfg := Config{Combiner: comb, Direction: DirectionPull, Threads: threads}
			if e, plain := build(cfg); !plain || e.FootprintBytes() != one.FootprintBytes() {
				t.Fatalf("%s threads=%d: inbox %T, %d B; want the plain inbox, %d B", cellName(cfg), threads, e.mb, e.FootprintBytes(), one.FootprintBytes())
			}
			cfg.Direction = DirectionAdaptive
			if _, plain := build(cfg); plain && threads > 1 {
				t.Fatalf("%s threads=%d: the adaptive engine built the plain inbox", cfg.VersionName(), threads)
			}
		}
	}
}

// hubGraph is a skewed directed graph: vertex 0 broadcasts to every
// other vertex (out-degree n-1) while the rest form a ring.
func hubGraph(n int) *graph.Graph {
	var b graph.Builder
	b.BuildInEdges()
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.VertexID(i))
		b.AddEdge(graph.VertexID(i), graph.VertexID((i%(n-1))+1))
	}
	b.AddEdge(graph.VertexID(n-1), 0)
	return b.MustBuild()
}

// TestDirectionParity pins the direction oracle at the engine level:
// push-only, pull-only and adaptive runs of the same broadcast-only
// program produce identical values and identical Report fingerprints,
// across inbox and bypass configurations, with the invariant audits
// (including message conservation on pull supersteps) enabled
// throughout. A pull-only engine runs over the plain inbox whatever its
// Combiner; the broadcast rows name it as the paper does. Its Messages
// count the logical fan-out like every other direction, so it is held to
// the same push fingerprint.
func TestDirectionParity(t *testing.T) {
	g := gridForCheckpoint(t)
	type cell struct {
		base Config   // run push-only as the oracle
		vs   []Config // must match the oracle's values and fingerprint
		name func(Config) string
	}
	directions := func(base Config) cell {
		pull, adaptive := base, base
		pull.Direction, adaptive.Direction = DirectionPull, DirectionAdaptive
		return cell{base, []Config{pull, adaptive}, cellName}
	}
	cells := []cell{
		directions(Config{Combiner: CombinerSpin, Threads: 3}),
		directions(Config{Combiner: CombinerMutex, Threads: 4}),
		directions(Config{Combiner: CombinerSpin, Threads: 4, SelectionBypass: true}),
		directions(Config{Combiner: CombinerMutex, Threads: 2, SelectionBypass: true}),
	}
	for _, bypass := range []bool{false, true} {
		cells = append(cells, cell{
			base: Config{Combiner: CombinerSpin, Threads: 3, SelectionBypass: bypass},
			vs:   []Config{{Direction: DirectionPull, Threads: 4, SelectionBypass: bypass}},
			name: Config.VersionName,
		})
	}
	for _, c := range cells {
		c.base.CheckInvariants = true
		ePush, repPush, err := Run(g, c.base, ssspProg(1))
		if err != nil {
			t.Fatalf("%s push: %v", c.base.VersionName(), err)
		}
		want := ePush.ValuesDense()
		for _, cfg := range c.vs {
			cfg.CheckInvariants = true
			t.Run(c.name(cfg), func(t *testing.T) {
				e, rep, err := Run(g, cfg, ssspProg(1))
				if err != nil {
					t.Fatal(err)
				}
				if fp, fpPush := rep.Fingerprint(), repPush.Fingerprint(); fp != fpPush {
					t.Fatalf("fingerprint diverged from push run:\n--- push ---\n%s--- %s ---\n%s", fpPush, c.name(cfg), fp)
				}
				for i, v := range e.ValuesDense() {
					if v != want[i] {
						t.Fatalf("dist[%d] = %d, want %d", i, v, want[i])
					}
				}
			})
		}
	}
}

// TestPullFloatRunsBitExact pins the pull clause of the determinism
// contract (DESIGN.md §5.1). A pull superstep's combine order is a
// property of the graph, not of the run: each destination's one owner
// folds its in-neighbours' outboxes in CSR order. So float programs run
// all-pull agree bit for bit across thread counts and inbox combiners —
// where the same program pushed agrees with them only to
// the 1e-9 the push clause allows, because its combine order is whatever
// order the cores delivered in.
func TestPullFloatRunsBitExact(t *testing.T) {
	// A hub with in-degree n-1 plus pseudo-random edges: long, uneven
	// float sums, so a changed summation order would show in the low bits.
	const n, rounds = 1500, 6
	var b graph.Builder
	b.BuildInEdges()
	x := uint32(12345)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VertexID(i), 0)
		for k := 0; k < 1+i%5; k++ {
			x = x*1664525 + 1013904223
			b.AddEdge(graph.VertexID(i), graph.VertexID(x>>8)%n)
		}
	}
	b.AddEdge(0, 1)
	g := b.MustBuild()

	refE, refRep, err := Run(g, Config{Combiner: CombinerSpin, Direction: DirectionPull, Threads: 1}, rankProg(rounds))
	if err != nil {
		t.Fatal(err)
	}
	want := refE.ValuesDense()
	for _, cfg := range []Config{
		{Combiner: CombinerSpin, Direction: DirectionPull, Threads: 4},
		{Combiner: CombinerMutex, Direction: DirectionPull, Threads: 3},
		{Direction: DirectionPull, Threads: 2},
		{Combiner: CombinerSpin, Threads: 4}, // push: tolerance-exact only
	} {
		cfg.CheckInvariants = true
		e, rep, err := Run(g, cfg, rankProg(rounds))
		if err != nil {
			t.Fatalf("%s: %v", cfg.VersionName(), err)
		}
		if rep.Fingerprint() != refRep.Fingerprint() {
			t.Fatalf("%s: fingerprint diverged:\n%s--- want ---\n%s", cfg.VersionName(), rep.Fingerprint(), refRep.Fingerprint())
		}
		for i, got := range e.ValuesDense() {
			if e.Config().Direction == DirectionPull && got != want[i] {
				t.Fatalf("%s: rank[%d] = %v, want exactly %v", cfg.VersionName(), i, got, want[i])
			}
			if math.Abs(got-want[i]) > 1e-9 {
				t.Fatalf("%s: rank[%d] = %v, want %v within 1e-9", cfg.VersionName(), i, got, want[i])
			}
		}
	}
}

// TestPullCollectFoldOrder pins what the collect phase writes: every
// receiver's inbox is the left fold of its flagged in-neighbours' outbox
// entries in InNeighbors order — the first copied, each later one
// combined. Each vertex records its inbox per superstep through a
// schedule that takes every collect path:
//
//   - superstep 0: every vertex broadcasts, so the fold reads no flag;
//   - 1 and 3: a third of the senders stay quiet (the flagged fold);
//   - 2: only sinks broadcast — no edge carries an entry, and the collect
//     walks nothing (under bypass nothing was enrolled, and the run ends).
//
// The called fold combines order-sensitively, with no identity in the
// zero value, so a reordered, dropped, doubled or zero-seeded entry
// changes the value; the Sum fold adds reciprocals, whose rounding pins
// the order. It holds on the plain inbox of every pull-only engine, and
// on every inbox version at two and four threads under adaptive, whose
// supersteps here all pull — over flat and compressed adjacency, with and
// without bypass, and CheckInvariants audits each fold as k-1 combines
// plus one fill.
func TestPullCollectFoldOrder(t *testing.T) {
	const n = 600
	sink := func(i int) bool { return i%5 == 2 }
	flat := fanoutGraphSinks(n, 7, sink)
	if flat.N() != n {
		t.Fatalf("graph has %d vertices, want %d", flat.N(), n)
	}
	sends := func(step int, id graph.VertexID) bool {
		switch step {
		case 0:
			return true
		case 1, 3:
			return id%3 != 0
		case 2:
			return sink(int(id) - 1)
		}
		return false
	}
	t.Run("called", func(t *testing.T) {
		checkFoldOrder(t, flat, sends,
			func(old *uint64, new uint64) { *old = *old*31 + new + 1 },
			func(step int, id graph.VertexID) uint64 { return uint64(id)*2654435761 + uint64(step)<<40 + 1 })
	})
	t.Run("sum", func(t *testing.T) {
		checkFoldOrder(t, flat, sends, Sum,
			func(step int, id graph.VertexID) float64 { return float64(step+1) / float64(id) })
	})
}

// checkFoldOrder is one TestPullCollectFoldOrder program over every cell:
// vertices broadcast msg(step, id) where sends says, and record each
// superstep's inbox and whether it had one.
func checkFoldOrder[M uint64 | float64](t *testing.T, flat *graph.Graph, sends func(int, graph.VertexID) bool, combine CombineFunc[M], msg func(int, graph.VertexID) M) {
	const steps = 5
	type record struct {
		got [steps]M
		has [steps]bool
	}
	compressed, err := flat.Compress()
	if err != nil {
		t.Fatal(err)
	}
	prog := Program[record, M]{
		Combine: combine,
		Compute: func(ctx *Context[record, M], v Vertex[record, M]) {
			step, rec := ctx.Superstep(), v.Value()
			rec.has[step] = ctx.NextMessage(v, &rec.got[step])
			if sends(step, v.ID()) {
				ctx.Broadcast(v, msg(step, v.ID()))
			}
			if step == steps-1 || ctx.e.cfg.SelectionBypass {
				ctx.VoteToHalt(v)
			}
		},
	}
	// oracle replays the schedule sequentially: without bypass every
	// vertex runs every superstep; under bypass only those with mail run
	// after superstep 0, and the run ends at the first superstep that
	// sends nothing.
	n := flat.N()
	oracle := func(bypass bool) (want []record, ran int) {
		want = make([]record, n)
		runs := make([]bool, n)
		for i := range runs {
			runs[i] = true // superstep 0 runs everyone
		}
		for s := 0; s < steps; s++ {
			ran++
			sent := make([]bool, n)
			for i := range sent {
				sent[i] = (runs[i] || !bypass) && sends(s, flat.ExternalID(i))
			}
			mail := false
			for i := range runs {
				var inbox M
				has := false
				for _, nb := range flat.InNeighbors(i) {
					if !sent[nb] {
						continue
					}
					if m := msg(s, flat.ExternalID(int(nb))); has {
						combine(&inbox, m)
					} else {
						inbox, has = m, true
					}
				}
				if s+1 < steps {
					want[i].got[s+1], want[i].has[s+1] = inbox, has
				}
				runs[i] = has
				mail = mail || has
			}
			if bypass && !mail {
				break
			}
		}
		return want, ran
	}
	for _, bypass := range []bool{false, true} {
		want, ran := oracle(bypass)
		for _, g := range []*graph.Graph{flat, compressed} {
			for _, comb := range []Combiner{CombinerSpin, CombinerMutex} {
				for _, dir := range []Direction{DirectionPull, DirectionAdaptive} {
					for _, threads := range []int{1, 2, 4} {
						cfg := Config{Combiner: comb, Direction: dir, Threads: threads, SelectionBypass: bypass, CheckInvariants: true}
						name := fmt.Sprintf("%s threads=%d compressed=%v", cellName(cfg), threads, g.IsCompressed())
						e, rep, err := Run(g, cfg, prog)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if len(rep.Steps) != ran {
							t.Fatalf("%s: ran %d supersteps, want %d", name, len(rep.Steps), ran)
						}
						for s, st := range rep.Steps {
							if st.Direction != DirectionPull {
								t.Fatalf("%s: superstep %d pushed, want every superstep pulled", name, s)
							}
						}
						for i, got := range e.ValuesDense() {
							if got != want[i] {
								t.Fatalf("%s: inboxes of vertex %d per superstep = %v, want the in-order folds %v", name, flat.ExternalID(i), got, want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestPullRepeatBroadcastCombines pins the rule for a vertex that
// broadcasts twice in one superstep: a push broadcast combines both
// messages in every recipient's inbox, and a pull one combines the second
// into the sender's outbox entry, so every direction ends with the same
// values and Fingerprint, and the conservation audit counts the repeat's
// deliveries as combines. Both vertices of a two-cycle send 1 then 2
// (each receives 3); on a larger graph vertices send once, twice or
// three times.
func TestPullRepeatBroadcastCombines(t *testing.T) {
	var cycle graph.Builder
	cycle.BuildInEdges()
	cycle.AddEdge(1, 2)
	cycle.AddEdge(2, 1)
	prog := Program[float64, float64]{
		Combine: Sum,
		Compute: func(ctx *Context[float64, float64], v Vertex[float64, float64]) {
			if ctx.IsFirstSuperstep() {
				times := 2
				switch {
				case v.ID()%3 == 0:
					times = 3
				case v.ID()%5 == 0:
					times = 1
				}
				for k := 1; k <= times; k++ {
					ctx.Broadcast(v, float64(k))
				}
			} else {
				ctx.NextMessage(v, v.Value())
			}
			ctx.VoteToHalt(v)
		},
	}
	for _, g := range []*graph.Graph{cycle.MustBuild(), fanoutGraph(300, 5)} {
		for _, bypass := range []bool{false, true} {
			for _, threads := range []int{1, 2} {
				base := Config{Combiner: CombinerSpin, Threads: threads, SelectionBypass: bypass, CheckInvariants: true}
				ePush, repPush, err := Run(g, base, prog)
				if err != nil {
					t.Fatalf("push %s: %v", base.VersionName(), err)
				}
				want := ePush.ValuesDense()
				if g.N() == 2 && (want[0] != 3 || want[1] != 3) {
					t.Fatalf("push %s on the two-cycle: values %v, want [3 3]", base.VersionName(), want)
				}
				for _, dir := range []Direction{DirectionPull, DirectionAdaptive} {
					cfg := base
					cfg.Direction = dir
					name := fmt.Sprintf("%s threads=%d |V|=%d", cellName(cfg), threads, g.N())
					e, rep, err := Run(g, cfg, prog)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if rep.Steps[0].Direction != DirectionPull {
						t.Fatalf("%s: superstep 0 pushed", name)
					}
					if got := e.ValuesDense(); !slices.Equal(got, want) {
						t.Fatalf("%s: values %v, want the push run's %v", name, got, want)
					}
					if fp, fpPush := rep.Fingerprint(), repPush.Fingerprint(); fp != fpPush {
						t.Fatalf("%s: fingerprint diverged from push run:\n--- push ---\n%s--- pull ---\n%s", name, fpPush, fp)
					}
				}
			}
		}
	}
}

// TestAdaptiveSwitches checks the density heuristic actually changes
// direction mid-run: superstep 0 runs every vertex (frontier density
// |E| >= threshold·|E|), so an adaptive run opens with a pull superstep,
// and SSSP's narrow early frontier forces a switch to push.
func TestAdaptiveSwitches(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, Threads: 3, Direction: DirectionAdaptive, CheckInvariants: true}
	_, rep, err := Run(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) < 2 {
		t.Fatalf("run too short to switch: %d steps", len(rep.Steps))
	}
	if rep.Steps[0].Direction != DirectionPull {
		t.Fatalf("superstep 0 direction = %v, want pull (all vertices active)", rep.Steps[0].Direction)
	}
	switches := 0
	sawPush := false
	for i, s := range rep.Steps {
		if s.Direction == DirectionPush {
			sawPush = true
		}
		if s.DirectionSwitched {
			switches++
			if i == 0 {
				t.Fatal("first superstep marked as a switch")
			}
			if rep.Steps[i-1].Direction == s.Direction {
				t.Fatalf("step %d marked switched but direction %v equals step %d's", i, s.Direction, i-1)
			}
		}
	}
	if !sawPush || switches == 0 {
		t.Fatalf("adaptive SSSP never switched (push seen: %v, switches: %d)\n%v", sawPush, switches, rep.Table())
	}
}

// TestSendPanicsOnPullSuperstep pins the broadcast-only contract of
// hybrid pull supersteps: identifier-addressed sends have no pull
// equivalent, so Send must fail loudly instead of silently losing mail.
func TestSendPanicsOnPullSuperstep(t *testing.T) {
	g := ringGraph(8, 0)
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			ctx.Send(v.ID(), 1)
			ctx.VoteToHalt(v)
		},
	}
	_, rep, err := Run(g, Config{Direction: DirectionPull, CheckInvariants: true}, prog)
	if err == nil || !strings.Contains(err.Error(), "broadcast-only") {
		t.Fatalf("Send on a pull superstep: err = %v, want broadcast-only panic", err)
	}
	if !rep.Aborted {
		t.Fatal("report not marked aborted")
	}
}

// TestAdaptiveRestoreAcrossSwitch is the crash/resume determinism pin:
// an engine restored from any barrier checkpoint of an adaptive run must
// re-derive the same per-superstep directions from the restored state —
// including resuming directly across a direction switch — and finish
// with the same values.
func TestAdaptiveRestoreAcrossSwitch(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, Threads: 3, Direction: DirectionAdaptive, CheckInvariants: true}
	saved := map[int]*bytes.Buffer{}
	e, err := New(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	err = e.SetCheckpointer(Checkpointer[uint32, uint32]{
		Every:  1,
		Sink:   func(step int) (io.Writer, error) { buf := &bytes.Buffer{}; saved[step] = buf; return buf, nil },
		VCodec: u32Codec{},
		MCodec: u32Codec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := e.ValuesDense()
	switched := false
	for _, s := range full.Steps {
		switched = switched || s.DirectionSwitched
	}
	if !switched {
		t.Fatal("adaptive run never switched; the restore test would prove nothing")
	}
	if len(saved) == 0 {
		t.Fatal("no checkpoints captured")
	}
	for step, buf := range saved {
		restored, err := Restore(bytes.NewReader(buf.Bytes()), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
		if err != nil {
			t.Fatalf("restore at %d: %v", step, err)
		}
		rep, err := restored.Run()
		if err != nil {
			t.Fatalf("resumed run from %d: %v", step, err)
		}
		for j, s := range rep.Steps {
			abs := rep.FirstSuperstep + j
			if abs >= len(full.Steps) {
				break
			}
			if s.Direction != full.Steps[abs].Direction {
				t.Fatalf("resume from %d: superstep %d ran %v, original ran %v — direction decisions diverged across restore",
					step, abs, s.Direction, full.Steps[abs].Direction)
			}
		}
		for i, v := range restored.ValuesDense() {
			if v != want[i] {
				t.Fatalf("resume from %d: dist[%d] = %d, want %d", step, i, v, want[i])
			}
		}
	}
}
