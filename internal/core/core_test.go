package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ipregel/internal/graph"
)

func ringGraph(n int, base graph.VertexID) *graph.Graph {
	var b graph.Builder
	b.BuildInEdges()
	for i := 0; i < n; i++ {
		b.AddEdge(base+graph.VertexID(i), base+graph.VertexID((i+1)%n))
	}
	return b.MustBuild()
}

// counterProgram floods the ring for `steps` supersteps: every vertex
// broadcasts 1 each superstep and counts what it received.
func counterProgram(steps int) Program[uint32, uint32] {
	return Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			var m uint32
			for ctx.NextMessage(v, &m) {
				*v.Value() += m
			}
			if ctx.Superstep() < steps {
				ctx.Broadcast(v, 1)
			} else {
				ctx.VoteToHalt(v)
			}
		},
	}
}

func TestEngineBasicFlood(t *testing.T) {
	g := ringGraph(8, 0)
	for _, cfg := range []Config{{Combiner: CombinerMutex}, {Combiner: CombinerSpin}, {Direction: DirectionPull}} {
		cfg.Threads = 3
		t.Run(cfg.VersionName(), func(t *testing.T) {
			e, rep, err := Run(g, cfg, counterProgram(5))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Converged {
				t.Fatal("did not converge")
			}
			// 6 supersteps of compute (0..5), messages sent in 0..4 — wait:
			// broadcast while superstep < 5, so steps 0..4 send, step 5
			// receives and halts; step 6 confirms quiescence is not needed
			// because halting happens with no messages in flight.
			if rep.Supersteps < 6 {
				t.Fatalf("supersteps = %d, want >= 6", rep.Supersteps)
			}
			for i, v := range e.ValuesDense() {
				if v != 5 { // one message per superstep from the single in-neighbour
					t.Fatalf("vertex %d counted %d messages, want 5", i, v)
				}
			}
		})
	}
}

func TestEngineValueByID(t *testing.T) {
	g := ringGraph(4, 1) // base-1 identifiers
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			*v.Value() = uint32(v.ID()) * 10
			ctx.VoteToHalt(v)
		},
	}
	e, _, err := Run(g, Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Value(3); got != 30 {
		t.Fatalf("Value(3) = %d, want 30", got)
	}
	vals := e.ValuesDense()
	if vals[0] != 10 || vals[3] != 40 {
		t.Fatalf("ValuesDense = %v", vals)
	}
}

func TestPullRequiresInEdges(t *testing.T) {
	g := ringGraph(4, 0).StripInEdges()
	_, err := New(g, Config{Direction: DirectionPull}, counterProgram(1))
	if err == nil || !strings.Contains(err.Error(), "in-neighbours") {
		t.Fatalf("want in-edge error, got %v", err)
	}
}

func TestProgramValidation(t *testing.T) {
	g := ringGraph(4, 0)
	if _, err := New(g, Config{}, Program[uint32, uint32]{Combine: func(*uint32, uint32) {}}); err == nil {
		t.Fatal("missing Compute accepted")
	}
	if _, err := New(g, Config{}, Program[uint32, uint32]{Compute: func(*Context[uint32, uint32], Vertex[uint32, uint32]) {}}); err == nil {
		t.Fatal("missing Combine accepted")
	}
}

func TestEngineRunsOnce(t *testing.T) {
	g := ringGraph(4, 0)
	e, err := New(g, Config{}, counterProgram(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestMaxSupersteps(t *testing.T) {
	g := ringGraph(4, 0)
	// Never halts: always broadcasts.
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			ctx.Broadcast(v, 1)
		},
	}
	_, rep, err := Run(g, Config{MaxSupersteps: 7}, prog)
	if !errors.Is(err, ErrMaxSupersteps) {
		t.Fatalf("want ErrMaxSupersteps, got %v", err)
	}
	if rep.Converged {
		t.Fatal("aborted run reported converged")
	}
}

func TestBypassViolation(t *testing.T) {
	g := ringGraph(4, 0)
	// Vertices do not vote to halt — exactly the PageRank situation in
	// which the paper says bypass is inapplicable (§4 note).
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.Superstep() < 3 {
				ctx.Broadcast(v, 1)
			} else {
				ctx.VoteToHalt(v)
			}
		},
	}
	_, _, err := Run(g, Config{SelectionBypass: true}, prog)
	if !errors.Is(err, ErrBypassViolation) {
		t.Fatalf("want ErrBypassViolation, got %v", err)
	}
}

// TestBypassViolationNamesVertex: under selection bypass the engine's
// barrier check is the one statement of the paper's §4 contract. Whatever
// the shape of the path that leaves a vertex active, the run stops at that
// superstep with an error that wraps ErrBypassViolation and names the
// vertex and the superstep: at superstep 0 (the full scan; of two
// violators the lower is named, also when two workers each saw one) and
// later (a frontier list). The shapes that halt on every path run to
// convergence. Each token program floods a hop counter along the ring from
// vertex 1, so vertex s+1 runs at superstep s, up to superstep 8.
func TestBypassViolationNamesVertex(t *testing.T) {
	g := ringGraph(200, 1) // identifiers 1..200, 1 → 2 → …
	token := func(compute func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32])) Program[uint32, uint32] {
		return Program[uint32, uint32]{Combine: Min, Compute: compute}
	}
	// received reads v's hop counter, vertex 1 holding 8 at superstep 0.
	received := func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32], m *uint32) bool {
		if ctx.IsFirstSuperstep() && v.ID() == 1 {
			*m = 8
			return true
		}
		return ctx.NextMessage(v, m)
	}
	skipHalt := func(step int, awake ...graph.VertexID) Program[uint32, uint32] {
		return token(func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			var m uint32
			if received(ctx, v, &m) && m > 0 {
				ctx.Broadcast(v, m-1)
			}
			if ctx.Superstep() != step || !slices.Contains(awake, v.ID()) {
				ctx.VoteToHalt(v)
			}
		})
	}
	for _, c := range []struct {
		name   string
		prog   Program[uint32, uint32]
		vertex graph.VertexID // 0: the shape is clean
		step   int
	}{
		{"two violators at superstep 0", skipHalt(0, 150, 77), 77, 0},
		{"one violator on a frontier list", skipHalt(3, 4), 4, 3},
		{"early return at a later superstep", token(func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			var m uint32
			got := received(ctx, v, &m)
			if ctx.Superstep() > 3 {
				return
			}
			if got && m > 0 {
				ctx.Broadcast(v, m-1)
			}
			ctx.VoteToHalt(v)
		}), 5, 4},
		{"falls off the end after a superstep-0 broadcast", token(computeNoHalt), 1, 0},
		{"program built by a constructor", newLeakyProgram(), 1, 0},
		{"broadcast, then return", token(func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			var m uint32
			if received(ctx, v, &m) && m > 0 {
				ctx.Broadcast(v, m-1)
				if ctx.Superstep() == 5 {
					return
				}
			}
			ctx.VoteToHalt(v)
		}), 6, 5},
		{"send, then return", token(func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			var m uint32
			if received(ctx, v, &m) && m > 0 {
				ctx.Send(v.ID()+1, m-1)
				if ctx.Superstep() == 2 {
					return
				}
			}
			ctx.VoteToHalt(v)
		}), 3, 2},
		{"deferred halt", token(func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			defer ctx.VoteToHalt(v)
			var m uint32
			if !received(ctx, v, &m) {
				return
			}
			if m > 0 {
				ctx.Broadcast(v, m-1)
			}
		}), 0, 0},
		{"halt in every branch", token(func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			var m uint32
			switch {
			case received(ctx, v, &m) && m > 0:
				ctx.Broadcast(v, m-1)
				ctx.VoteToHalt(v)
			default:
				ctx.VoteToHalt(v)
			}
		}), 0, 0},
	} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/threads=%d", c.name, threads), func(t *testing.T) {
				_, rep, err := Run(g, Config{Threads: threads, SelectionBypass: true}, c.prog)
				if c.vertex == 0 {
					if err != nil || !rep.Converged || rep.Supersteps != 9 {
						t.Fatalf("clean shape: err %v, converged %v after %d supersteps, want nil, true, 9", err, rep.Converged, rep.Supersteps)
					}
					return
				}
				want := fmt.Sprintf("vertex %d did not vote to halt at superstep %d", c.vertex, c.step)
				if !errors.Is(err, ErrBypassViolation) || !strings.Contains(err.Error(), want) {
					t.Fatalf("got %v, want ErrBypassViolation naming %q", err, want)
				}
				if rep.Supersteps != c.step+1 {
					t.Fatalf("run stopped after %d supersteps, want %d", rep.Supersteps, c.step+1)
				}
			})
		}
	}
}

// computeNoHalt broadcasts at superstep 0 and then falls off the end
// without voting to halt.
func computeNoHalt(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
	if ctx.IsFirstSuperstep() {
		ctx.Broadcast(v, 1)
		return
	}
}

// newLeakyProgram builds its Compute in a function of its own: it sends
// every message back to its vertex and never votes to halt.
func newLeakyProgram() Program[uint32, uint32] {
	return Program[uint32, uint32]{
		Combine: Min,
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			var m uint32
			for ctx.NextMessage(v, &m) {
				ctx.Send(v.ID(), m)
			}
		},
	}
}

// haltingFlood is bypass-compatible: every vertex votes to halt every
// superstep and forwards a decreasing hop counter.
func haltingFlood(hops uint32) Program[uint32, uint32] {
	return Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) {
			if new > *old {
				*old = new
			}
		},
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.IsFirstSuperstep() {
				if v.ID() == 0 {
					*v.Value() = hops
					ctx.Broadcast(v, hops-1)
				}
			} else {
				var m uint32
				if ctx.NextMessage(v, &m) {
					if m > *v.Value() {
						*v.Value() = m
						if m > 0 {
							ctx.Broadcast(v, m-1)
						}
					}
				}
			}
			ctx.VoteToHalt(v)
		},
	}
}

func TestBypassMatchesScan(t *testing.T) {
	g := ringGraph(16, 0)
	for _, version := range []Config{{Combiner: CombinerMutex}, {Combiner: CombinerSpin}, {Direction: DirectionPull}} {
		comb := version.VersionName()
		var dense [][]uint32
		var ran [][]int64
		for _, bypass := range []bool{false, true} {
			cfg := version
			cfg.SelectionBypass, cfg.CheckInvariants, cfg.Threads = bypass, true, 4
			e, rep, err := Run(g, cfg, haltingFlood(10))
			if err != nil {
				t.Fatalf("%s bypass=%v: %v", comb, bypass, err)
			}
			dense = append(dense, e.ValuesDense())
			ran = append(ran, rep.RanSeries())
			if bypass {
				// After superstep 0 only message recipients may run: the
				// flood touches exactly one vertex per superstep.
				for s := 1; s < len(rep.Steps)-1; s++ {
					if rep.Steps[s].Ran != 1 {
						t.Fatalf("%s: bypass superstep %d ran %d vertices, want 1", comb, s, rep.Steps[s].Ran)
					}
				}
			}
		}
		for i := range dense[0] {
			if dense[0][i] != dense[1][i] {
				t.Fatalf("%s: bypass changed results at %d: %d vs %d", comb, i, dense[0][i], dense[1][i])
			}
		}
		_ = ran
	}
}

func TestSendOnPullPanics(t *testing.T) {
	g := ringGraph(4, 0)
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			defer func() {
				if recover() == nil {
					t.Error("Send on a pull-only engine should panic")
				}
			}()
			ctx.Send(1, 1)
		},
	}
	e, err := New(g, Config{Direction: DirectionPull, MaxSupersteps: 1}, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = e.Run()
}

func TestSendToUnknownVertexPanics(t *testing.T) {
	g := ringGraph(4, 0)
	panicked := false
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			ctx.Send(99, 1)
			ctx.VoteToHalt(v)
		},
	}
	e, err := New(g, Config{Threads: 1, MaxSupersteps: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = e.Run()
	if !panicked {
		t.Fatal("expected panic for unknown recipient")
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	var l spinLock
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.lock()
				counter++
				l.unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestMailboxFootprintOrdering(t *testing.T) {
	combine := func(old *uint32, new uint32) { *old += new }
	lockBytes := func(cfg Config) uint64 {
		mb, _, err := newMailbox[uint32](cfg, 1000, combine)
		if err != nil {
			t.Fatal(err)
		}
		return mb.lockBytes()
	}
	mutex := lockBytes(Config{Combiner: CombinerMutex, Threads: 2})
	spin := lockBytes(Config{Combiner: CombinerSpin, Threads: 2})
	if !(spin < mutex) {
		t.Fatalf("spinlock mailbox (%d B of locks) should be lighter than mutex (%d B)", spin, mutex)
	}
	// Pull has no locks at all: its inbox is the bare buffers (the
	// outboxes it pays for instead belong to the engine's pull transport).
	if pull := lockBytes(Config{Direction: DirectionPull, Threads: 2}); pull != 0 {
		t.Fatalf("pull inbox carries %d B of locks", pull)
	}
}

func TestConfigStringsAndParsing(t *testing.T) {
	for _, c := range []Combiner{CombinerMutex, CombinerSpin} {
		got, err := ParseCombiner(c.String())
		if err != nil || got != c {
			t.Fatalf("combiner roundtrip %v: %v %v", c, got, err)
		}
	}
	if _, err := ParseCombiner("bogus"); err == nil {
		t.Fatal("bogus combiner accepted")
	}
	// The broadcast version is a transport: the error says where it went.
	for _, s := range []string{"broadcast", "pull"} {
		if _, err := ParseCombiner(s); err == nil || !strings.Contains(err.Error(), "direction pull") {
			t.Fatalf("ParseCombiner(%q) err = %v, want a pointer to direction pull", s, err)
		}
	}
	if (Config{Combiner: CombinerSpin, SelectionBypass: true}).VersionName() != "spinlock+bypass" {
		t.Fatal("VersionName mismatch")
	}
	if Combiner(42).String() == "" {
		t.Fatal("unknown enum String empty")
	}
}

func TestAllVersions(t *testing.T) {
	vs := AllVersions()
	if len(vs) != 6 {
		t.Fatalf("AllVersions = %d entries, want 6 (paper §7.2)", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		seen[v.VersionName()] = true
	}
	for _, want := range []string{"mutex", "mutex+bypass", "spinlock", "spinlock+bypass", "broadcast", "broadcast+bypass"} {
		if !seen[want] {
			t.Fatalf("missing version %s", want)
		}
	}
}

func TestReportRendering(t *testing.T) {
	g := ringGraph(8, 0)
	_, rep, err := Run(g, Config{}, counterProgram(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" || rep.Table() == "" {
		t.Fatal("empty report rendering")
	}
	if len(rep.RanSeries()) != len(rep.Steps) {
		t.Fatal("series lengths")
	}
	// PageRank-style shape: all vertices run while broadcasting.
	if rep.Steps[0].Ran != 8 {
		t.Fatalf("step 0 ran %d, want 8", rep.Steps[0].Ran)
	}
}

func TestFootprintPerVersion(t *testing.T) {
	g := ringGraph(512, 0)
	prog := counterProgram(0)
	footprint := func(cfg Config) uint64 {
		t.Helper()
		e, err := New(g, cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return e.FootprintBytes()
	}
	// The locks exist for concurrent senders, so the mutex-vs-spinlock
	// comparison is one of engines that have some: two threads.
	spin := footprint(Config{Combiner: CombinerSpin, Threads: 2})
	mutex := footprint(Config{Combiner: CombinerMutex, Threads: 2})
	if spin >= mutex {
		t.Fatalf("spinlock engine (%d B) should be lighter than mutex engine (%d B)", spin, mutex)
	}
	// The difference is exactly the lock arrays: (8-4) bytes per slot.
	if mutex-spin != 512*(mutexBytes-spinLockBytes) {
		t.Fatalf("lock delta = %d, want %d", mutex-spin, 512*(mutexBytes-spinLockBytes))
	}
	// One thread allocates the plain inbox whatever the combiner: zero
	// lock bytes, the same footprint for all of them. Per array, for 512
	// slots of uint32 values and messages: values 4 B, the activity bitset
	// 8 words of 8 B (1/8 B), the two message buffers 2·4 B, and the two
	// occupancy bitsets 2·8 words of 8 B — 12.375 B per slot.
	plain := spin - 512*spinLockBytes
	if want := uint64(512*4 + 8*8 + 2*512*4 + 2*8*8); plain != want {
		t.Fatalf("plain inbox engine: %d B, want %d B", plain, want)
	}
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin} {
		if got := footprint(Config{Combiner: comb, Threads: 1}); got != plain {
			t.Fatalf("%s at one thread: %d B, want the lock-free %d B", comb, got, plain)
		}
	}
	// A push-only bypass engine enrols at the first inbox fill: no dedup
	// flags. It keeps no activity bitset (-1/8 B/slot), and each worker's
	// enrolment buffer holds FrontierListCap(512) = 512 entries of 4 B
	// (the minSpan floor is above |V|); before its first frontier that is
	// all it adds. One that can pull carries 4 B/slot of pull enrolment
	// flags beside its outbox.
	if FrontierListCap(512) != 512 {
		t.Fatalf("FrontierListCap(512) = %d, want 512", FrontierListCap(512))
	}
	for _, threads := range []int{1, 2} {
		for _, dir := range []Direction{DirectionPush, DirectionAdaptive} {
			cfg := Config{Combiner: CombinerSpin, Direction: dir, Threads: threads}
			base := footprint(cfg)
			cfg.SelectionBypass = true
			want := base - 8*8 + uint64(threads)*512*4
			if dir != DirectionPush {
				want += 512 * 4
			}
			if got := footprint(cfg); got != want {
				t.Fatalf("%s threads=%d: %d B, want %d B", cfg.VersionName(), threads, got, want)
			}
		}
	}
}

func TestWorkerTimeTracking(t *testing.T) {
	g := ringGraph(64, 0)
	_, rep, err := Run(g, Config{Threads: 4, TrackWorkerTime: true}, counterProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) == 0 {
		t.Fatal("no steps")
	}
	sawBusy := false
	for _, s := range rep.Steps {
		if len(s.WorkerBusy) != 4 {
			t.Fatalf("WorkerBusy has %d entries, want 4", len(s.WorkerBusy))
		}
		for _, b := range s.WorkerBusy {
			if b > 0 {
				sawBusy = true
			}
		}
	}
	if !sawBusy {
		t.Fatal("no busy time recorded")
	}
	if rep.LoadImbalance() < 1 {
		t.Fatalf("LoadImbalance = %v, want >= 1", rep.LoadImbalance())
	}
	// Untracked runs report zero.
	_, rep2, err := Run(g, Config{Threads: 4}, counterProgram(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LoadImbalance() != 0 {
		t.Fatal("untracked run should report 0 imbalance")
	}
	if rep2.Steps[0].WorkerBusy != nil {
		t.Fatal("untracked run recorded WorkerBusy")
	}
}

func TestObserverSeesEverySuperstep(t *testing.T) {
	g := ringGraph(16, 0)
	var seen []int
	var ranSum int64
	obs := ObserverFuncs{SuperstepEnd: func(s int, st StepStats) {
		seen = append(seen, s)
		ranSum += st.Ran
	}}
	_, rep, err := Run(g, Config{Observers: []Observer{obs}}, counterProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != rep.Supersteps {
		t.Fatalf("observer fired %d times, want %d", len(seen), rep.Supersteps)
	}
	for i, s := range seen {
		if s != i {
			t.Fatalf("observer superstep order: %v", seen)
		}
	}
	if ranSum == 0 {
		t.Fatal("observer saw no work")
	}
}

func TestImbalanceArithmetic(t *testing.T) {
	s := StepStats{WorkerBusy: []time.Duration{40, 10, 10, 20}}
	// mean = 20, max = 40 -> 2.0
	if got := s.Imbalance(); got != 2.0 {
		t.Fatalf("Imbalance = %v, want 2", got)
	}
	if (StepStats{}).Imbalance() != 0 {
		t.Fatal("empty imbalance")
	}
	if (StepStats{WorkerBusy: []time.Duration{0, 0}}).Imbalance() != 0 {
		t.Fatal("idle imbalance")
	}
}

func TestEmptyGraph(t *testing.T) {
	var b graph.Builder
	g := b.MustBuild()
	for _, cfg := range []Config{{}, {SelectionBypass: true}} {
		e, rep, err := Run(g, cfg, counterProgram(3))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !rep.Converged || rep.TotalMessages != 0 {
			t.Fatalf("empty graph report: %+v", rep)
		}
		if len(e.ValuesDense()) != 0 {
			t.Fatal("values on empty graph")
		}
	}
}

func TestSingleVertexSelfLoop(t *testing.T) {
	var b graph.Builder
	b.BuildInEdges()
	b.AddEdge(5, 5)
	g := b.MustBuild()
	for _, cfg := range []Config{{Combiner: CombinerMutex}, {Combiner: CombinerSpin}, {Direction: DirectionPull}} {
		comb := cfg.VersionName()
		e, rep, err := Run(g, cfg, counterProgram(4))
		if err != nil {
			t.Fatalf("%v: %v", comb, err)
		}
		if !rep.Converged {
			t.Fatalf("%v: not converged", comb)
		}
		// The vertex messages itself once per superstep for 4 supersteps.
		if got := e.ValuesDense()[0]; got != 4 {
			t.Fatalf("%v: self-loop count = %d, want 4", comb, got)
		}
	}
}

func TestIsolatedVerticesHaltImmediately(t *testing.T) {
	var b graph.Builder
	b.ForceN = 10
	b.SetBase(0)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			ctx.VoteToHalt(v)
		},
	}
	_, rep, err := Run(g, Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Supersteps != 1 {
		t.Fatalf("all-halt program took %d supersteps, want 1", rep.Supersteps)
	}
	if rep.Steps[0].Ran != 10 {
		t.Fatalf("superstep 0 ran %d, want all 10", rep.Steps[0].Ran)
	}
}

func TestVertexAccessors(t *testing.T) {
	g := ringGraph(4, 1)
	var sawDeg, sawIn int
	ids := map[graph.VertexID]bool{}
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.IsFirstSuperstep() && v.ID() == 1 {
				sawDeg = v.OutDegree()
				sawIn = v.InDegree()
				v.OutNeighborIDs(func(id graph.VertexID) { ids[id] = true })
			}
			if ctx.VertexCount() != 4 {
				t.Error("VertexCount wrong")
			}
			ctx.VoteToHalt(v)
		},
	}
	if _, _, err := Run(g, Config{Threads: 1}, prog); err != nil {
		t.Fatal(err)
	}
	if sawDeg != 1 || sawIn != 1 {
		t.Fatalf("degrees = %d/%d, want 1/1", sawDeg, sawIn)
	}
	if !ids[2] || len(ids) != 1 {
		t.Fatalf("neighbour ids = %v, want {2}", ids)
	}
}

func TestRunContextCancellation(t *testing.T) {
	g := ringGraph(32, 0)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(c *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if c.Superstep() == 2 && v.ID() == 0 {
				select {
				case <-started:
				default:
					close(started)
				}
			}
			c.Broadcast(v, 1) // never halts on its own
		},
	}
	e, err := New(g, Config{Threads: 2, MaxSupersteps: 1 << 20}, prog)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		cancel()
	}()
	rep, err := e.RunContext(ctx)
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("want cancellation error, got %v", err)
	}
	if rep.Converged {
		t.Fatal("cancelled run reported converged")
	}
	if len(rep.Steps) < 2 {
		t.Fatalf("expected some supersteps before cancellation, got %d", len(rep.Steps))
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	g := ringGraph(8, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := New(g, Config{}, counterProgram(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunContext(ctx); err == nil {
		t.Fatal("pre-cancelled context accepted")
	}
}
