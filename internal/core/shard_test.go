package core

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"ipregel/internal/graph"
)

// shardedVersions enumerates the multi-shard configurations the parity
// tests sweep: both push combiners, scan and bypass, both partitioners,
// 2 and 4 shards.
func shardedVersions() []Config {
	var out []Config
	for _, comb := range []Combiner{CombinerSpin, CombinerAtomic} {
		for _, bypass := range []bool{false, true} {
			for _, kind := range []Partition{PartitionRange, PartitionHash} {
				for _, shards := range []int{2, 4} {
					out = append(out, Config{
						Combiner:        comb,
						SelectionBypass: bypass,
						Partition:       kind,
						Shards:          shards,
						Threads:         4,
						CheckInvariants: true,
					})
				}
			}
		}
	}
	return out
}

// shardedParity runs prog on every sharded configuration and requires
// the superstep count and values of the single-shard reference, under
// CheckInvariants. Programs that keep vertices active (bypassable false)
// skip the selection-bypass rows, which the paper rules out for them (§4).
func shardedParity[V any](t *testing.T, g *graph.Graph, prog Program[V, V], bypassable bool, same func(got, want V) bool) {
	t.Helper()
	ref, refRep, err := Run(g, Config{Combiner: CombinerSpin, Threads: 4, CheckInvariants: true}, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ValuesDense()
	for _, cfg := range shardedVersions() {
		if cfg.SelectionBypass && !bypassable {
			continue
		}
		name := cfg.VersionName()
		e, rep, err := Run(g, cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Converged {
			t.Fatalf("%s: did not converge", name)
		}
		if rep.Supersteps != refRep.Supersteps {
			t.Fatalf("%s: %d supersteps, reference took %d", name, rep.Supersteps, refRep.Supersteps)
		}
		got := e.ValuesDense()
		for i := range want {
			if !same(got[i], want[i]) {
				t.Fatalf("%s: value[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestShardedMatchesSingleShard is the sharding parity gate: every
// sharded configuration must produce values identical to the single-shard
// reference, under CheckInvariants, for programs with real cross-shard
// traffic — SSSP flooding the checkpoint grid, and SSSP, min-label and a
// PageRank-shaped float program (equal to summation-order noise) on the
// fan-out graph, whose superstep-0 broadcast (32768 wide-stride messages
// across 4 threads) overflows the routers' 512-way caches, so deliveries
// reach the mailboxes through evictions during compute as well as
// through the barrier flush.
func TestShardedMatchesSingleShard(t *testing.T) {
	exact := func(got, want uint32) bool { return got == want }
	fan := fanoutGraph(4096, 8)
	t.Run("sssp/grid", func(t *testing.T) { shardedParity(t, gridForCheckpoint(t), ssspProg(1), true, exact) })
	t.Run("sssp/fanout", func(t *testing.T) { shardedParity(t, fan, ssspProg(1), true, exact) })
	t.Run("minlabel/fanout", func(t *testing.T) { shardedParity(t, fan, minLabelProg(), true, exact) })
	t.Run("rank/fanout", func(t *testing.T) {
		shardedParity(t, fan, rankProg(5), false, func(got, want float64) bool { return math.Abs(got-want) <= 1e-9 })
	})
}

// TestShardedStepStats checks the per-shard accounting: ShardMessages has
// one entry per shard summing to Messages, cross-shard counts are bounded
// by the total, and the bypass runs report a per-shard next frontier that
// sums to NextFrontier.
func TestShardedStepStats(t *testing.T) {
	g := gridForCheckpoint(t)
	for _, bypass := range []bool{false, true} {
		cfg := Config{Combiner: CombinerAtomic, Shards: 4, Threads: 4, SelectionBypass: bypass, CheckInvariants: true}
		_, rep, err := Run(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatal(err)
		}
		sawMessages := false
		for si, s := range rep.Steps {
			if s.Messages == 0 {
				continue
			}
			sawMessages = true
			if len(s.ShardMessages) != 4 {
				t.Fatalf("bypass=%v step %d: ShardMessages len %d, want 4", bypass, si, len(s.ShardMessages))
			}
			var sum uint64
			for _, n := range s.ShardMessages {
				sum += n
			}
			if sum != s.Messages {
				t.Fatalf("bypass=%v step %d: shard messages sum %d != Messages %d", bypass, si, sum, s.Messages)
			}
			if s.CrossShardMessages > s.Messages {
				t.Fatalf("bypass=%v step %d: cross-shard %d > total %d", bypass, si, s.CrossShardMessages, s.Messages)
			}
			if im := s.ShardImbalance(); im < 1 {
				t.Fatalf("bypass=%v step %d: shard imbalance %v < 1", bypass, si, im)
			}
			if bypass {
				if len(s.ShardNextFrontier) != 4 {
					t.Fatalf("bypass step %d: ShardNextFrontier len %d, want 4", si, len(s.ShardNextFrontier))
				}
				var fsum int64
				for _, n := range s.ShardNextFrontier {
					fsum += n
				}
				if fsum != s.NextFrontier {
					t.Fatalf("bypass step %d: shard frontier sum %d != NextFrontier %d", si, fsum, s.NextFrontier)
				}
			}
		}
		if !sawMessages {
			t.Fatalf("bypass=%v: no superstep sent messages", bypass)
		}
		// The grid's SSSP flood necessarily crosses range-partition
		// boundaries at some superstep.
		var cross uint64
		for _, s := range rep.Steps {
			cross += s.CrossShardMessages
		}
		if cross == 0 {
			t.Fatalf("bypass=%v: no cross-shard messages on a 4-shard grid flood", bypass)
		}
	}
}

// TestSingleShardStatsStayFlat pins the equivalence guarantee on the
// accounting side: single-shard reports must not grow shard breakdowns.
func TestSingleShardStatsStayFlat(t *testing.T) {
	g := ringGraph(16, 0)
	_, rep, err := Run(g, Config{Combiner: CombinerSpin, Threads: 2}, counterProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	for si, s := range rep.Steps {
		if s.ShardMessages != nil || s.ShardNextFrontier != nil || s.CrossShardMessages != 0 || s.SkippedShards != 0 {
			t.Fatalf("step %d: single-shard report has shard fields: %+v", si, s)
		}
		if s.ShardImbalance() != 0 {
			t.Fatalf("step %d: single-shard ShardImbalance = %v", si, s.ShardImbalance())
		}
	}
}

// TestObserverSeesShardStats checks that the per-shard breakdown reaches
// observers (the telemetry layer feeds off the same callback).
func TestObserverSeesShardStats(t *testing.T) {
	g := gridForCheckpoint(t)
	var shardMsgs [][]uint64
	obs := ObserverFuncs{
		SuperstepEnd: func(_ int, s StepStats) { shardMsgs = append(shardMsgs, s.ShardMessages) },
	}
	e, err := New(g, Config{Combiner: CombinerSpin, Shards: 2, Threads: 2}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	e.AddObserver(obs)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(shardMsgs) == 0 {
		t.Fatal("observer saw no supersteps")
	}
	found := false
	for _, sm := range shardMsgs {
		if len(sm) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("observer never saw a 2-entry ShardMessages breakdown")
	}
}

// TestShardedCheckpointRoundTrip runs the sharded engine with
// checkpointing and restores every dump, requiring the resumed runs to
// land on the single-shard reference values — the sharded analogue of
// TestCheckpointRestoreContinuesIdentically.
func TestShardedCheckpointRoundTrip(t *testing.T) {
	g := gridForCheckpoint(t)
	ref, _, err := Run(g, Config{Combiner: CombinerSpin, Threads: 2}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ValuesDense()
	for _, cfg := range []Config{
		{Combiner: CombinerSpin, Shards: 3, Threads: 2, CheckInvariants: true},
		{Combiner: CombinerAtomic, Shards: 4, Partition: PartitionHash, Threads: 2, CheckInvariants: true},
		{Combiner: CombinerSpin, Shards: 2, SelectionBypass: true, Threads: 2, CheckInvariants: true},
	} {
		name := cfg.VersionName()
		var dumps []*bytes.Buffer
		e, err := New(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
			Every: 3,
			Sink: func(int) (io.Writer, error) {
				buf := &bytes.Buffer{}
				dumps = append(dumps, buf)
				return buf, nil
			},
			VCodec: u32Codec{},
			MCodec: u32Codec{},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(dumps) == 0 {
			t.Fatalf("%s: no checkpoints taken", name)
		}
		for di, dump := range dumps {
			restored, err := Restore(bytes.NewReader(dump.Bytes()), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
			if err != nil {
				t.Fatalf("%s: restore #%d: %v", name, di, err)
			}
			if _, err := restored.Run(); err != nil {
				t.Fatalf("%s: resumed run #%d: %v", name, di, err)
			}
			got := restored.ValuesDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: restore #%d: dist[%d] = %d, want %d", name, di, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardTopologyMismatch checks that restores across different shard
// layouts are rejected instead of silently scrambling local slots.
func TestShardTopologyMismatch(t *testing.T) {
	g := gridForCheckpoint(t)
	dump := func(cfg Config) []byte {
		var buf bytes.Buffer
		e, err := New(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
			Every:  2,
			Sink:   func(int) (io.Writer, error) { buf.Reset(); return &buf, nil },
			VCodec: u32Codec{},
			MCodec: u32Codec{},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("no checkpoint written")
		}
		return buf.Bytes()
	}
	flat := dump(Config{Combiner: CombinerSpin, Threads: 2})
	sharded3 := dump(Config{Combiner: CombinerSpin, Shards: 3, Threads: 2})
	cases := []struct {
		name    string
		data    []byte
		cfg     Config
		wantSub string
	}{
		{"flat-into-sharded", flat, Config{Combiner: CombinerSpin, Shards: 3, Threads: 2}, "shard topology mismatch"},
		{"sharded-into-flat", sharded3, Config{Combiner: CombinerSpin, Threads: 2}, "shard topology mismatch"},
		{"wrong-shard-count", sharded3, Config{Combiner: CombinerSpin, Shards: 4, Threads: 2}, "shard topology mismatch"},
		{"wrong-partition", sharded3, Config{Combiner: CombinerSpin, Shards: 3, Partition: PartitionHash, Threads: 2}, "partitioned by"},
	}
	for _, tc := range cases {
		_, err := Restore(bytes.NewReader(tc.data), g, tc.cfg, ssspProg(1), u32Codec{}, u32Codec{})
		if err == nil {
			t.Fatalf("%s: restore succeeded, want error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestShardConfigValidation pins the construction errors.
func TestShardConfigValidation(t *testing.T) {
	g := ringGraph(8, 0)
	prog := counterProgram(1)
	if _, err := New(g, Config{Shards: -1}, prog); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("negative shards: %v", err)
	}
	// CombinerPull × shards: the lock-free inbox per shard, under the
	// pull direction it implies.
	if e, err := New(g, Config{Shards: 2, Combiner: CombinerPull}, prog); err != nil {
		t.Fatalf("pull+shards should construct: %v", err)
	} else if _, lockFree := e.shards[1].mb.(*plainMailbox[uint32]); e.cfg.Direction != DirectionPull || !lockFree {
		t.Fatalf("pull+shards built direction=%v inbox=%T, want DirectionPull over *plainMailbox", e.cfg.Direction, e.shards[1].mb)
	}
	cfg := Config{Shards: 4, Partition: PartitionHash}
	if name := cfg.VersionName(); !strings.Contains(name, "shards4") || !strings.Contains(name, "hash") {
		t.Fatalf("VersionName %q does not name the shard config", name)
	}
	if name := (Config{}).VersionName(); strings.Contains(name, "shards") {
		t.Fatalf("single-shard VersionName %q mentions shards", name)
	}
}

// TestShardedEdgeBalanced checks the per-shard edge-balanced cuts path
// (range partitioner only) still produces correct results.
func TestShardedEdgeBalanced(t *testing.T) {
	g := gridForCheckpoint(t)
	ref, _, err := Run(g, Config{Combiner: CombinerSpin, Threads: 2}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ValuesDense()
	for _, shards := range []int{2, 4} {
		cfg := Config{
			Combiner:        CombinerAtomic,
			Schedule:        ScheduleEdgeBalanced,
			Shards:          shards,
			Threads:         4,
			CheckInvariants: true,
		}
		e, _, err := Run(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := e.ValuesDense()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: dist[%d] = %d, want %d", shards, i, got[i], want[i])
			}
		}
	}
}

// TestMoreShardsThanSlots exercises degenerate partitions where some
// shards own zero slots.
func TestMoreShardsThanSlots(t *testing.T) {
	g := ringGraph(3, 0)
	for _, kind := range []Partition{PartitionRange, PartitionHash} {
		cfg := Config{Combiner: CombinerSpin, Shards: 8, Partition: kind, Threads: 2, CheckInvariants: true}
		e, rep, err := Run(g, cfg, counterProgram(4))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !rep.Converged {
			t.Fatalf("%v: did not converge", kind)
		}
		for i, v := range e.ValuesDense() {
			if v != 4 {
				t.Fatalf("%v: value[%d] = %d, want 4", kind, i, v)
			}
		}
	}
}

// fanoutGraph builds a strongly connected n-vertex graph (ids 1..n) whose
// deg out-edges per vertex are spread across the whole id range: wide
// strides defeat the router's direct-mapped combining cache, so sharded
// runs deliver through cache evictions as well as the barrier flush, and
// the range partition sees heavy cross-shard traffic in every direction.
func fanoutGraph(n, deg int) *graph.Graph {
	var b graph.Builder
	b.BuildInEdges()
	for i := 0; i < n; i++ {
		for j := 0; j < deg; j++ {
			dst := (i + 1 + j*(n/deg+13)) % n
			if dst == i {
				dst = (dst + 1) % n
			}
			b.AddEdge(graph.VertexID(1+i), graph.VertexID(1+dst))
		}
	}
	return b.MustBuild()
}

// minLabelProg floods the minimum vertex id (hashmin/WCC on a connected
// graph): every superstep each improved vertex broadcasts, so message
// volume stays high — and the uint32 min-combine is order-independent,
// making results exactly comparable across delivery schedules.
func minLabelProg() Program[uint32, uint32] {
	return Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) {
			if new < *old {
				*old = new
			}
		},
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.IsFirstSuperstep() {
				*v.Value() = uint32(v.ID())
				ctx.Broadcast(v, *v.Value())
				ctx.VoteToHalt(v)
				return
			}
			best := *v.Value()
			var m uint32
			for ctx.NextMessage(v, &m) {
				if m < best {
					best = m
				}
			}
			if best < *v.Value() {
				*v.Value() = best
				ctx.Broadcast(v, best)
			}
			ctx.VoteToHalt(v)
		},
	}
}

// rankProg is a PageRank-shaped float program: every vertex broadcasts
// every superstep for a fixed round count. Float addition is not
// associative, so cross-schedule comparison uses a tolerance.
func rankProg(rounds int) Program[float64, float64] {
	return Program[float64, float64]{
		Combine: func(old *float64, new float64) { *old += new },
		Compute: func(ctx *Context[float64, float64], v Vertex[float64, float64]) {
			if ctx.IsFirstSuperstep() {
				*v.Value() = 1
			} else {
				var sum, m float64
				for ctx.NextMessage(v, &m) {
					sum += m
				}
				*v.Value() = 0.15 + 0.85*sum
			}
			if ctx.Superstep() < rounds {
				if d := v.OutDegree(); d > 0 {
					ctx.Broadcast(v, *v.Value()/float64(d))
				}
			} else {
				ctx.VoteToHalt(v)
			}
		},
	}
}

// twoIslandGraph returns a graph whose high-id half is a separate
// component from the low-id half: under a 2-shard range partition the
// second shard receives no traffic from a flood started in the first.
func twoIslandGraph() *graph.Graph {
	var b graph.Builder
	b.BuildInEdges()
	const half = 32
	for i := 0; i < half-1; i++ { // chain 1..32
		b.AddEdge(graph.VertexID(1+i), graph.VertexID(2+i))
		b.AddEdge(graph.VertexID(2+i), graph.VertexID(1+i))
	}
	for i := 0; i < half; i++ { // ring 1001..1032
		b.AddEdge(graph.VertexID(1001+i), graph.VertexID(1001+(i+1)%half))
	}
	return b.MustBuild()
}

// TestFrontierAwareShardSkipping pins the skip decision: a shard whose
// component went quiescent (no active vertices, no inbound deliveries)
// must be skipped — visibly, via StepStats.SkippedShards — while the
// flood in the other component proceeds to the exact flat-engine result.
// The shard-activity audit (CheckInvariants) cross-checks the incremental
// active counts against a full flag scan at every barrier.
func TestFrontierAwareShardSkipping(t *testing.T) {
	g := twoIslandGraph()
	flatE, _, err := Run(g, Config{Combiner: CombinerSpin, Threads: 2, CheckInvariants: true}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	flat := flatE.ValuesDense()
	for _, bypass := range []bool{false, true} {
		cfg := Config{
			Combiner:        CombinerSpin,
			Shards:          2,
			Threads:         2,
			SelectionBypass: bypass,
			CheckInvariants: true,
		}
		e, rep, err := Run(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatalf("bypass=%v: %v", bypass, err)
		}
		var skipped int64
		for si, s := range rep.Steps {
			if s.SkippedShards < 0 || s.SkippedShards > 2 {
				t.Fatalf("bypass=%v step %d: SkippedShards = %d", bypass, si, s.SkippedShards)
			}
			skipped += s.SkippedShards
		}
		// The 31-superstep chain flood leaves the island shard idle
		// from superstep 1 on; it must be skipped, not rescanned.
		if skipped == 0 {
			t.Fatalf("bypass=%v: quiescent shard was never skipped", bypass)
		}
		got := e.ValuesDense()
		for i := range flat {
			if got[i] != flat[i] {
				t.Fatalf("bypass=%v: dist[%d] = %d, want %d", bypass, i, got[i], flat[i])
			}
		}
	}
}

// TestRouterCombinePanicAbortsRun pins the failure path of sharded
// delivery: a user Combine that panics when a routed message reaches an
// occupied mailbox — inside a router-cache eviction during compute, or
// inside drainRouters at the barrier — must come back from Run as the
// contained-panic error with a sealed report, never crash the process.
// One vertex does all the sending, so which phase hits the occupied
// mailbox is decided by the send sequence, not by worker scheduling: d
// and d2 share a destination shard and a cache way, so each send evicts
// the other's entry into the mailbox.
func TestRouterCombinePanicAbortsRun(t *testing.T) {
	const n = 2000
	g := fanoutGraph(n, 8)
	cfg := Config{Combiner: CombinerSpin, Shards: 4, Threads: 4, CheckInvariants: true}
	probe, err := New(g, cfg, minLabelProg())
	if err != nil {
		t.Fatal(err)
	}
	home := func(id graph.VertexID) (shard, way int) {
		s, local := probe.part.locate(probe.addr.locate(id))
		return s, routeIndex(local)
	}
	d, d2 := graph.VertexID(n), graph.VertexID(0)
	dShard, dWay := home(d)
	for id := d - 1; id > 1 && d2 == 0; id-- {
		if s, way := home(id); s == dShard && way == dWay {
			d2 = id
		}
	}
	if d2 == 0 {
		t.Fatal("no two vertices of one shard share a router-cache way")
	}
	for _, tc := range []struct {
		name  string
		sends []graph.VertexID
	}{
		// d cached; d2 evicts d (fills the mailbox); d evicts d2; the
		// barrier flush delivers the cached d onto the filled slot.
		{"drain", []graph.VertexID{d, d2, d}},
		// One more send evicts that d during compute instead. The way
		// must already hold d2 when the eviction panics: left holding d,
		// the barrier flush would go back to d's dead lock and hang.
		{"eviction", []graph.VertexID{d, d2, d, d2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := Program[uint32, uint32]{
				Combine: func(*uint32, uint32) { panic("combiner exploded") },
				Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
					if ctx.IsFirstSuperstep() && v.ID() == 1 {
						for _, dst := range tc.sends {
							ctx.Send(dst, 7)
						}
					}
					ctx.VoteToHalt(v)
				},
			}
			_, rep, err := Run(g, cfg, prog)
			if err == nil || !strings.Contains(err.Error(), "compute panicked at superstep 0") || !strings.Contains(err.Error(), "combiner exploded") {
				t.Fatalf("err = %v, want the contained combiner panic", err)
			}
			if !rep.Aborted || len(rep.Steps) != 1 || !rep.Steps[0].Partial {
				t.Fatalf("report not sealed around the partial superstep: %+v", rep)
			}
		})
	}
}
