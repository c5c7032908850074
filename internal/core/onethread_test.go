package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"ipregel/internal/graph"
)

// sendSSSPProg is ssspProg with the broadcast spelled as one Send per
// out-neighbour: the identifier-addressed path (a scatter of one).
func sendSSSPProg(source graph.VertexID) Program[uint32, uint32] {
	prog := ssspProg(source)
	return Program[uint32, uint32]{
		Combine: prog.Combine,
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.IsFirstSuperstep() {
				*v.Value() = ^uint32(0)
			}
			ref := ^uint32(0)
			if v.ID() == source {
				ref = 0
			}
			var m uint32
			for ctx.NextMessage(v, &m) {
				ref = min(ref, m)
			}
			if ref < *v.Value() {
				*v.Value() = ref
				v.OutNeighborIDs(func(id graph.VertexID) { ctx.Send(id, ref+1) })
			}
			ctx.VoteToHalt(v)
		},
	}
}

// oneVsThreads runs prog under cfg on one thread and on threads and
// demands, with the barrier audits on, the same next-frontier size at
// every superstep (under selection bypass the set of slots whose inbox
// filled does not depend on the delivery order), the same Fingerprint and the
// same values under same. It returns the one-thread report.
func oneVsThreads[V any](t *testing.T, g *graph.Graph, cfg Config, prog Program[V, V], same func(one, many V) bool, threads int) Report {
	t.Helper()
	cfg.CheckInvariants = true
	cfg.Threads = 1
	e1, rep1, err := Run(g, cfg, prog)
	if err != nil {
		t.Fatalf("%s threads=1: %v", cfg.VersionName(), err)
	}
	cfg.Threads = threads
	eN, repN, err := Run(g, cfg, prog)
	if err != nil {
		t.Fatalf("%s threads=%d: %v", cfg.VersionName(), threads, err)
	}
	for i := range min(len(rep1.Steps), len(repN.Steps)) {
		if n1, nN := rep1.Steps[i].NextFrontier, repN.Steps[i].NextFrontier; n1 != nN {
			t.Fatalf("%s: superstep %d enrolled %d vertices on one thread, %d on %d", cfg.VersionName(), i, n1, nN, threads)
		}
	}
	if fp1, fpN := rep1.Fingerprint(), repN.Fingerprint(); fp1 != fpN {
		t.Fatalf("%s: fingerprints differ\n--- one thread ---\n%s--- %d threads ---\n%s", cfg.VersionName(), fp1, threads, fpN)
	}
	v1, vN := e1.ValuesDense(), eN.ValuesDense()
	for i := range v1 {
		if !same(v1[i], vN[i]) {
			t.Fatalf("%s: value[%d] = %v on one thread, %v on %d", cfg.VersionName(), i, v1[i], vN[i], threads)
		}
	}
	return rep1
}

// TestOneThreadInboxParity: a one-thread engine builds the plain inbox
// whatever the combiner (newMailbox), so every configuration must compute
// on it what it computes on the configured lock-based inbox at
// two threads — through a Broadcast's scatter and a Send's scatter of
// one, in every direction. Integers are bit-exact; float sums agree to
// the 1e-9 of DESIGN.md §5.1 when a push superstep was involved and bit
// for bit when every superstep pulled.
func TestOneThreadInboxParity(t *testing.T) {
	g := fanoutGraph(240, 5) // identifiers from 1: every Send goes through id − base
	sameInt := func(a, b uint32) bool { return a == b }
	sameFloat := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
	bitExact := func(a, b float64) bool { return a == b }
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin} {
		for _, dir := range []Direction{DirectionPush, DirectionPull, DirectionAdaptive} {
			cfg := Config{Combiner: comb, Direction: dir}
			for _, bypass := range []bool{false, true} {
				cfg.SelectionBypass = bypass
				oneVsThreads(t, g, cfg, ssspProg(1), sameInt, 2)
				oneVsThreads(t, g, cfg, minLabelProg(), sameInt, 2)
				if dir == DirectionPush {
					oneVsThreads(t, g, cfg, sendSSSPProg(1), sameInt, 2)
				}
			}
			cfg.SelectionBypass = false // rankProg never halts before its last round
			if dir == DirectionPull {
				oneVsThreads(t, g, cfg, rankProg(5), bitExact, 2)
			} else {
				oneVsThreads(t, g, cfg, rankProg(5), sameFloat, 2)
			}
		}
	}
}

// TestOneThreadFloatPushBitExact pins the one-thread clause of DESIGN.md
// §5.1: with one worker a push superstep delivers in scan order — sources
// ascending — which is the order a pull superstep folds a destination's
// in-neighbours in. So a one-thread float push run is not merely
// repeatable, it equals the all-pull run bit for bit.
func TestOneThreadFloatPushBitExact(t *testing.T) {
	g := fanoutGraph(240, 5)
	pull, _, err := Run(g, Config{Combiner: CombinerSpin, Threads: 2, Direction: DirectionPull}, rankProg(6))
	if err != nil {
		t.Fatal(err)
	}
	want := pull.ValuesDense()
	for _, cfg := range []Config{
		{Combiner: CombinerSpin, Threads: 1},
		{Combiner: CombinerMutex, Threads: 1},
	} {
		push, _, err := Run(g, cfg, rankProg(6))
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range push.ValuesDense() {
			if got != want[i] {
				t.Fatalf("%s: rank[%d] = %v pushed on one thread, %v pulled: want the same bits", cfg.VersionName(), i, got, want[i])
			}
		}
	}
}

// TestSendUnknownVertexEveryAddressing: Send is a scatter of one behind
// offset mapping's single unsigned bounds check, which must catch an id on
// either side of [base, base+N): below base, where id − base wraps, and
// one past the last vertex.
func TestSendUnknownVertexEveryAddressing(t *testing.T) {
	g := ringGraph(4, 1)
	for _, dst := range []graph.VertexID{0, 5} {
		prog := Program[uint32, uint32]{
			Combine: func(old *uint32, new uint32) { *old += new },
			Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
				ctx.Send(dst, 1)
				ctx.VoteToHalt(v)
			},
		}
		for _, threads := range []int{1, 2} {
			_, _, err := Run(g, Config{Threads: threads}, prog)
			want := fmt.Sprintf("core: message sent to unknown vertex %d", dst)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("threads=%d Send(%d): got %v, want %q", threads, dst, err, want)
			}
		}
	}
}

// TestCheckpointCrossesThreadCounts: the inbox version is not part of
// the checkpoint, so a barrier written by a two-thread engine (locked
// inbox) restores into a one-thread engine (plain inbox) and the reverse,
// and both resume to the uninterrupted result.
func TestCheckpointCrossesThreadCounts(t *testing.T) {
	g := gridForCheckpoint(t)
	for _, base := range []Config{
		{Combiner: CombinerSpin, SelectionBypass: true},
		{Combiner: CombinerMutex},
		{Combiner: CombinerMutex, SelectionBypass: true},
	} {
		for _, threads := range [][2]int{{2, 1}, {1, 2}} {
			writeCfg, readCfg := base, base
			writeCfg.Threads, readCfg.Threads = threads[0], threads[1]
			ref, refRep, err := Run(g, writeCfg, ssspProg(1))
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(g, writeCfg, ssspProg(1))
			if err != nil {
				t.Fatal(err)
			}
			var dump bytes.Buffer
			if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
				Every: 4,
				Sink: func(s int) (io.Writer, error) {
					if s != 4 {
						return io.Discard, nil
					}
					return &dump, nil
				},
				VCodec: u32Codec{}, MCodec: u32Codec{},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s written at %d threads, restored at %d", base.VersionName(), threads[0], threads[1])
			readCfg.CheckInvariants = true
			restored, err := Restore(bytes.NewReader(dump.Bytes()), g, readCfg, ssspProg(1), u32Codec{}, u32Codec{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rep, err := restored.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.Supersteps != refRep.Supersteps {
				t.Fatalf("%s: resumed run ended at superstep %d, reference at %d", name, rep.Supersteps, refRep.Supersteps)
			}
			want := ref.ValuesDense()
			for i, got := range restored.ValuesDense() {
				if got != want[i] {
					t.Fatalf("%s: dist[%d] = %d, want %d", name, i, got, want[i])
				}
			}
		}
	}
}

// TestSuperstepAllocatesConstant pins what the hot path keeps off the
// heap. NextMessage reaches the buffers without a dynamic call, so a
// program's `var m M` does not escape: through the interface it cost one
// allocation per vertex run. And Send's scatter of one goes through the
// worker's own one-element list: a local array would escape through the
// inbox dispatch, one allocation per message. A whole run otherwise
// allocates the engine's arrays and a few records per superstep.
func TestSuperstepAllocatesConstant(t *testing.T) {
	const n, rounds = 2000, 10
	g := fanoutGraph(n, 4)
	check := func(cfg Config, what string, run func() error) {
		t.Helper()
		allocs := testing.AllocsPerRun(3, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= n {
			t.Fatalf("%s threads=%d %s: %.0f allocations over %d vertices: something allocates per vertex run or per message", cfg.VersionName(), cfg.Threads, what, allocs, n)
		}
	}
	for _, cfg := range []Config{
		{Combiner: CombinerSpin, Threads: 1},
		{Combiner: CombinerMutex, Threads: 2},
		{Combiner: CombinerSpin, Threads: 1, Direction: DirectionPull},
	} {
		check(cfg, "rank", func() error { _, _, err := Run(g, cfg, rankProg(rounds)); return err })
		if cfg.Direction == DirectionPush {
			check(cfg, "sssp by Send", func() error { _, _, err := Run(g, cfg, sendSSSPProg(1)); return err })
		}
	}
}

// TestInvariantMailboxStateDetectsStaleFlag plants what a broken
// frontier-sized swap clear would leave behind — an occupancy flag in the
// freshly published next buffer — and expects the barrier audit to miss
// the fill that should have set it.
func TestInvariantMailboxStateDetectsStaleFlag(t *testing.T) {
	g := ringGraph(8, 0)
	e, err := New(g, Config{Combiner: CombinerSpin, CheckInvariants: true, SelectionBypass: true, Threads: 1}, haltingFlood(3))
	if err != nil {
		t.Fatal(err)
	}
	e.buf.hasNext[0] |= 1 << 5
	_, err = e.Run()
	if err == nil || !strings.Contains(err.Error(), "mailbox-state") || !strings.Contains(err.Error(), "stale flag") {
		t.Fatalf("want a mailbox-state violation naming the stale flag, got %v", err)
	}
}
