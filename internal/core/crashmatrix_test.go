// Kill-anywhere differential matrix: for each algorithm, mailbox flavour
// and selection mode, inject a crash at every superstep barrier, recover
// via RunWithRecovery from a FileSink checkpoint directory, and require
// the recovered run to be indistinguishable from an uninterrupted one —
// same values, same superstep count, and per-superstep statistics that
// line up with the reference run's tail. The file lives in package
// core_test so it can drive the engine purely through its public API,
// with the real programs from internal/algorithms and the fault injector
// from internal/chaos.
package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/chaos"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

// crashGrid is a 6×6 grid, base-1 ids, symmetric edges, in-edges built —
// valid for every combiner and both selection modes, with enough
// supersteps (SSSP eccentricity 10) to give the matrix real barriers.
func crashGrid(t *testing.T) *graph.Graph {
	t.Helper()
	return bidiGrid(6, 6)
}

// bidiGrid is a rows×cols grid with both edge directions, identifiers
// from 1 in row-major order.
func bidiGrid(rows, cols int) *graph.Graph {
	var b graph.Builder
	b.BuildInEdges()
	id := func(r, c int) graph.VertexID { return graph.VertexID(1 + r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
				b.AddEdge(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
				b.AddEdge(id(r+1, c), id(r, c))
			}
		}
	}
	return b.MustBuild()
}

// runRecovered executes prog under the injector's faults with Every=1
// checkpointing into a fresh FileSink, recovering via RunWithRecovery.
func runRecovered[T any](
	t *testing.T,
	g *graph.Graph,
	cfg core.Config,
	prog core.Program[T, T],
	codec core.Codec[T],
	inj *chaos.Injector,
	maxAttempts int,
) (*core.Engine[T, T], core.Report, error) {
	t.Helper()
	sink, err := core.NewFileSink(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observers = append(append([]core.Observer(nil), cfg.Observers...), inj.Observer())
	cp := core.Checkpointer[T, T]{
		Every:  1,
		Sink:   inj.WrapSink(sink.Sink),
		VCodec: codec,
		MCodec: codec,
	}
	return core.RunWithRecovery(context.Background(), g, cfg, chaos.WrapProgram(inj, prog), cp, sink, core.RecoveryOptions{
		MaxAttempts: maxAttempts,
		Sleep:       func(time.Duration) {},
		AttemptContext: func(parent context.Context, _ int) (context.Context, context.CancelFunc) {
			return inj.Context(parent)
		},
	})
}

// assertTail checks that the recovered run's report is the uninterrupted
// run's tail: absolute end superstep, per-superstep Ran/Messages/Active
// from the resume point on, and total messages equal to the tail sum.
func assertTail(t *testing.T, rep, ref core.Report) {
	t.Helper()
	if rep.Supersteps != ref.Supersteps {
		t.Fatalf("recovered run ended at superstep %d, reference at %d", rep.Supersteps, ref.Supersteps)
	}
	if want := ref.Supersteps - rep.FirstSuperstep; len(rep.Steps) != want {
		t.Fatalf("recovered run resumed %d supersteps from barrier %d, want %d", len(rep.Steps), rep.FirstSuperstep, want)
	}
	var tailMsgs uint64
	for i, s := range rep.Steps {
		refStep := ref.Steps[rep.FirstSuperstep+i]
		if s.Ran != refStep.Ran || s.Messages != refStep.Messages || s.Active != refStep.Active {
			t.Fatalf("superstep %d: recovered ran/msgs/active = %d/%d/%d, reference %d/%d/%d",
				rep.FirstSuperstep+i, s.Ran, s.Messages, s.Active, refStep.Ran, refStep.Messages, refStep.Active)
		}
		tailMsgs += refStep.Messages
	}
	if rep.TotalMessages != tailMsgs {
		t.Fatalf("recovered TotalMessages = %d, reference tail sum = %d", rep.TotalMessages, tailMsgs)
	}
}

// matrixConfigs enumerates the mailbox × selection grid for an algorithm.
func matrixConfigs(bypassable bool) []core.Config {
	combiners := []core.Combiner{core.CombinerSpin, core.CombinerMutex}
	var out []core.Config
	for _, cb := range combiners {
		out = append(out, core.Config{Combiner: cb, Threads: 2, CheckInvariants: true})
		if bypassable {
			out = append(out, core.Config{Combiner: cb, Threads: 2, CheckInvariants: true, SelectionBypass: true})
		}
	}
	return out
}

// TestCrashMatrixUint32 kills SSSP and Hashmin/WCC at every superstep k
// and requires exact recovery across the spinlock and mutex inboxes,
// with and without selection bypass.
func TestCrashMatrixUint32(t *testing.T) {
	g := crashGrid(t)
	progs := []struct {
		name string
		prog core.Program[uint32, uint32]
	}{
		{"sssp", algorithms.SSSPProgram(1)},
		{"wcc", algorithms.HashminProgram()}, // symmetric grid: hashmin labels = WCC
	}
	for _, p := range progs {
		for _, cfg := range matrixConfigs(true) {
			cfg, p := cfg, p
			t.Run(p.name+"/"+cfg.VersionName(), func(t *testing.T) {
				t.Parallel()
				refE, refRep, err := core.Run(g, cfg, p.prog)
				if err != nil {
					t.Fatal(err)
				}
				want := refE.ValuesDense()

				for k := 0; k < refRep.Supersteps; k++ {
					inj := chaos.New(int64(k), chaos.Event{Fault: chaos.ComputePanic, Superstep: k})
					e, rep, err := runRecovered(t, g, cfg, p.prog, pregelplus.Uint32Codec{}, inj, 3)
					if err != nil {
						t.Fatalf("panic@%d: %v", k, err)
					}
					if rep.Recoveries != 1 || rep.Attempts != 2 {
						t.Fatalf("panic@%d: attempts=%d recoveries=%d, want 2/1", k, rep.Attempts, rep.Recoveries)
					}
					// A panic during superstep k aborts before the k+1
					// checkpoint: recovery resumes from barrier k (0 when
					// the crash predates any checkpoint).
					if rep.FirstSuperstep != k {
						t.Fatalf("panic@%d: resumed from barrier %d", k, rep.FirstSuperstep)
					}
					assertTail(t, rep, refRep)
					got := e.ValuesDense()
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("panic@%d: value[%d] = %d, want %d", k, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestCrashMatrixPageRank runs the float algorithm through the same
// kill-anywhere sweep (scan selection only — PageRank keeps vertices
// active, which bypass forbids). Multi-thread summation order makes the
// low bits run-dependent, so values compare within 1e-9; a Threads=1
// cell pins exactness.
func TestCrashMatrixPageRank(t *testing.T) {
	g := crashGrid(t)
	const rounds = 5
	configs := matrixConfigs(false)
	configs = append(configs, core.Config{Combiner: core.CombinerSpin, Threads: 1, CheckInvariants: true})
	for _, cfg := range configs {
		cfg := cfg
		exact := cfg.Threads == 1
		name := cfg.VersionName()
		if exact {
			name += "/1thread"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := algorithms.PageRankProgram(rounds)
			refE, refRep, err := core.Run(g, cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			want := refE.ValuesDense()

			for k := 0; k < refRep.Supersteps; k++ {
				inj := chaos.New(int64(k), chaos.Event{Fault: chaos.ComputePanic, Superstep: k})
				e, rep, err := runRecovered(t, g, cfg, prog, pregelplus.Float64Codec{}, inj, 3)
				if err != nil {
					t.Fatalf("panic@%d: %v", k, err)
				}
				if rep.FirstSuperstep != k || rep.Recoveries != 1 {
					t.Fatalf("panic@%d: resumed from %d with %d recoveries", k, rep.FirstSuperstep, rep.Recoveries)
				}
				assertTail(t, rep, refRep)
				got := e.ValuesDense()
				for i := range want {
					if exact {
						if got[i] != want[i] {
							t.Fatalf("panic@%d: rank[%d] = %v, want exactly %v", k, i, got[i], want[i])
						}
					} else if math.Abs(got[i]-want[i]) > 1e-9 {
						t.Fatalf("panic@%d: rank[%d] = %v, want %v", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCrashMatrixFourThreads repeats the kill-anywhere sweep with four
// workers, so the frontier a checkpoint carries was gathered from four
// enrol buffers and the resumed run cuts it into four spans again: a
// crash at every superstep barrier must recover to the exact values and
// statistics of the uninterrupted four-thread run.
func TestCrashMatrixFourThreads(t *testing.T) {
	g := crashGrid(t)
	prog := algorithms.SSSPProgram(1)
	for _, cfg := range matrixConfigs(true) {
		cfg.Threads = 4
		t.Run(cfg.VersionName(), func(t *testing.T) {
			t.Parallel()
			refE, refRep, err := core.Run(g, cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			want := refE.ValuesDense()

			for k := 0; k < refRep.Supersteps; k++ {
				inj := chaos.New(int64(k), chaos.Event{Fault: chaos.ComputePanic, Superstep: k})
				e, rep, err := runRecovered(t, g, cfg, prog, pregelplus.Uint32Codec{}, inj, 3)
				if err != nil {
					t.Fatalf("panic@%d: %v", k, err)
				}
				if rep.Recoveries != 1 || rep.FirstSuperstep != k {
					t.Fatalf("panic@%d: resumed from barrier %d with %d recoveries", k, rep.FirstSuperstep, rep.Recoveries)
				}
				assertTail(t, rep, refRep)
				got := e.ValuesDense()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("panic@%d: value[%d] = %d, want %d", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCrashMatrixDenseFrontier repeats the kill-anywhere sweep on a
// graph whose frontiers outgrow the enrolment list cap
// (core.FrontierListCap): a barrier past it keeps no frontier list, its
// checkpoint lists the slots with mail in slot order, and the resumed run
// must rebuild the dense frontier from them. SSSP from the hub of a
// 3 000-vertex RMAT graph crosses the cap both ways; at least one crash
// must resume from a dense barrier, and every one must recover to the
// exact values and statistics of the uninterrupted run.
func TestCrashMatrixDenseFrontier(t *testing.T) {
	g := gen.RMATN(3000, 24000, 7, 1, true)
	listCap := int64(core.FrontierListCap(g.N()))
	prog := algorithms.SSSPProgram(maxOutDegree(g))
	for _, cfg := range []core.Config{
		{Threads: 1, SelectionBypass: true, CheckInvariants: true},
		{Combiner: core.CombinerSpin, Threads: 2, SelectionBypass: true, CheckInvariants: true},
		{Combiner: core.CombinerMutex, Threads: 4, SelectionBypass: true, CheckInvariants: true},
	} {
		t.Run(fmt.Sprintf("%s/%d", cfg.VersionName(), cfg.Threads), func(t *testing.T) {
			t.Parallel()
			refE, refRep, err := core.Run(g, cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			want := refE.ValuesDense()
			dense := 0
			for k := 0; k < refRep.Supersteps; k++ {
				if k > 0 && refRep.Steps[k-1].NextFrontier > listCap {
					dense++
				}
				inj := chaos.New(int64(k), chaos.Event{Fault: chaos.ComputePanic, Superstep: k})
				e, rep, err := runRecovered(t, g, cfg, prog, pregelplus.Uint32Codec{}, inj, 3)
				if err != nil {
					t.Fatalf("panic@%d: %v", k, err)
				}
				if rep.Recoveries != 1 || rep.FirstSuperstep != k {
					t.Fatalf("panic@%d: resumed from barrier %d with %d recoveries", k, rep.FirstSuperstep, rep.Recoveries)
				}
				assertTail(t, rep, refRep)
				got := e.ValuesDense()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("panic@%d: value[%d] = %d, want %d", k, i, got[i], want[i])
					}
				}
			}
			if dense == 0 {
				t.Fatalf("no barrier had a frontier past the list cap %d:\n%s", listCap, refRep.Table())
			}
		})
	}
}

// TestCrashMatrixCompressed repeats the kill-anywhere sweep on the
// block-compressed graph backend: the same grid with its adjacency (both
// directions) varint-delta encoded. Checkpoints never persist the graph,
// so recovery must rebuild every superstep through the compressed decode
// path — per-worker neighbour buffers in scatter and, for the pull cell,
// the collect phase — and still land on the exact values and statistics
// of the uninterrupted compressed run.
func TestCrashMatrixCompressed(t *testing.T) {
	cg, err := crashGrid(t).Compress()
	if err != nil {
		t.Fatal(err)
	}
	prog := algorithms.SSSPProgram(1)
	configs := []core.Config{
		{Combiner: core.CombinerMutex, Threads: 4, CheckInvariants: true, SelectionBypass: true},
		{Combiner: core.CombinerSpin, Threads: 2, CheckInvariants: true},
		{Direction: core.DirectionPull, Threads: 2, CheckInvariants: true},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.VersionName(), func(t *testing.T) {
			t.Parallel()
			refE, refRep, err := core.Run(cg, cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			want := refE.ValuesDense()

			for k := 0; k < refRep.Supersteps; k++ {
				inj := chaos.New(int64(k), chaos.Event{Fault: chaos.ComputePanic, Superstep: k})
				e, rep, err := runRecovered(t, cg, cfg, prog, pregelplus.Uint32Codec{}, inj, 3)
				if err != nil {
					t.Fatalf("panic@%d: %v", k, err)
				}
				if rep.Recoveries != 1 || rep.FirstSuperstep != k {
					t.Fatalf("panic@%d: resumed from barrier %d with %d recoveries", k, rep.FirstSuperstep, rep.Recoveries)
				}
				assertTail(t, rep, refRep)
				got := e.ValuesDense()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("panic@%d: value[%d] = %d, want %d", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCrashMatrixAdaptiveDirection repeats the kill-anywhere sweep on
// adaptive-direction engines: a crash at every barrier — including the
// barriers straddling a push↔pull switch — must recover to the exact
// values of the uninterrupted run, and the recovered tail must re-derive
// the same per-superstep direction decisions from the restored state.
func TestCrashMatrixAdaptiveDirection(t *testing.T) {
	// The 5% threshold puts the cut of the 6×6 crash grid at 6 out-edges,
	// which its SSSP wavefront never drops below after superstep 0. On an
	// 8×8 grid the cut is 11 edges: the run opens pull, falls to push on
	// the narrow early wavefront, pulls again at the broad middle and
	// finishes push — several real switches for the kill-anywhere sweep
	// to straddle.
	g := bidiGrid(8, 8)
	prog := algorithms.SSSPProgram(1)
	configs := []core.Config{
		{Combiner: core.CombinerSpin, Threads: 2, CheckInvariants: true,
			Direction: core.DirectionAdaptive},
		{Combiner: core.CombinerMutex, Threads: 2, CheckInvariants: true,
			Direction: core.DirectionAdaptive, SelectionBypass: true},
		{Combiner: core.CombinerMutex, Threads: 4, CheckInvariants: true,
			Direction: core.DirectionAdaptive},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.VersionName(), func(t *testing.T) {
			t.Parallel()
			refE, refRep, err := core.Run(g, cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			switched := false
			for _, s := range refRep.Steps {
				switched = switched || s.DirectionSwitched
			}
			if !switched {
				t.Fatalf("reference adaptive run never switched direction; the sweep would not cross a switch\n%v", refRep.Table())
			}
			want := refE.ValuesDense()

			for k := 0; k < refRep.Supersteps; k++ {
				inj := chaos.New(int64(k), chaos.Event{Fault: chaos.ComputePanic, Superstep: k})
				e, rep, err := runRecovered(t, g, cfg, prog, pregelplus.Uint32Codec{}, inj, 3)
				if err != nil {
					t.Fatalf("panic@%d: %v", k, err)
				}
				if rep.Recoveries != 1 || rep.FirstSuperstep != k {
					t.Fatalf("panic@%d: resumed from barrier %d with %d recoveries", k, rep.FirstSuperstep, rep.Recoveries)
				}
				assertTail(t, rep, refRep)
				for i, s := range rep.Steps {
					refStep := refRep.Steps[rep.FirstSuperstep+i]
					if s.Direction != refStep.Direction {
						t.Fatalf("panic@%d: superstep %d recovered as %v, reference ran %v — direction decision diverged across resume",
							k, rep.FirstSuperstep+i, s.Direction, refStep.Direction)
					}
				}
				got := e.ValuesDense()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("panic@%d: value[%d] = %d, want %d", k, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCrashMatrixFaultKinds drives the remaining fault kinds — context
// cancellation, checkpoint sink failure, a torn checkpoint write, and a
// committed bit-flipped checkpoint — each at a mid-run barrier, across
// the mailbox × selection grid.
func TestCrashMatrixFaultKinds(t *testing.T) {
	g := crashGrid(t)
	prog := algorithms.SSSPProgram(1)
	for _, cfg := range matrixConfigs(true) {
		cfg := cfg
		t.Run(cfg.VersionName(), func(t *testing.T) {
			t.Parallel()
			refE, refRep, err := core.Run(g, cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			want := refE.ValuesDense()
			mid := refRep.Supersteps / 2
			if mid < 2 {
				t.Fatalf("reference run too short (%d supersteps) for mid-run faults", refRep.Supersteps)
			}

			cases := []struct {
				name string
				// events to schedule; resumeAt is the expected barrier of
				// the recovered attempt.
				events   []chaos.Event
				resumeAt int
			}{
				// Cancellation fired when superstep mid starts is observed
				// at the next loop-top context check: superstep mid still
				// completes and checkpoints, so recovery resumes at mid+1.
				{"cancel", []chaos.Event{{Fault: chaos.Cancel, Superstep: mid}}, mid + 1},
				// A sink that fails to open loses checkpoint mid: the run
				// aborts and resumes from the previous barrier.
				{"sink", []chaos.Event{{Fault: chaos.SinkError, Superstep: mid}}, mid - 1},
				// A write torn mid-checkpoint must be aborted by the
				// atomic sink — no ckpt-mid file may surface.
				{"torn", []chaos.Event{{Fault: chaos.TornWrite, Superstep: mid, Arg: -1}}, mid - 1},
				// A bit flip that commits silently corrupts checkpoint
				// mid; the paired panic forces a recovery, which must skip
				// the corrupt file and fall back to barrier mid-1.
				{"flip+panic", []chaos.Event{
					{Fault: chaos.BitFlip, Superstep: mid, Arg: -1},
					{Fault: chaos.ComputePanic, Superstep: mid},
				}, mid - 1},
			}
			for _, tc := range cases {
				inj := chaos.New(7, tc.events...)
				e, rep, err := runRecovered(t, g, cfg, prog, pregelplus.Uint32Codec{}, inj, 4)
				if err != nil {
					t.Fatalf("%s@%d: %v", tc.name, mid, err)
				}
				if rep.Recoveries < 1 {
					t.Fatalf("%s@%d: completed without recovering", tc.name, mid)
				}
				if rep.FirstSuperstep != tc.resumeAt {
					t.Fatalf("%s@%d: resumed from barrier %d, want %d", tc.name, mid, rep.FirstSuperstep, tc.resumeAt)
				}
				if fired := inj.Fired(); len(fired) != len(tc.events) {
					t.Fatalf("%s@%d: fired %v, want all of %v", tc.name, mid, fired, tc.events)
				}
				assertTail(t, rep, refRep)
				got := e.ValuesDense()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s@%d: value[%d] = %d, want %d", tc.name, mid, i, got[i], want[i])
					}
				}
			}
		})
	}
}
