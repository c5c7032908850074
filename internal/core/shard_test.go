package core

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// shardedVersions enumerates the multi-shard configurations the parity
// tests sweep: both push combiners, scan and bypass, both partitioners,
// 2 and 4 shards, and every delivery/scheduling mode (barrier-only,
// overlapped drains, work stealing, and both together).
func shardedVersions() []Config {
	var out []Config
	for _, comb := range []Combiner{CombinerSpin, CombinerAtomic} {
		for _, bypass := range []bool{false, true} {
			for _, kind := range []Partition{PartitionRange, PartitionHash} {
				for _, shards := range []int{2, 4} {
					for _, mode := range []struct{ overlap, steal bool }{
						{false, false}, {true, false}, {false, true}, {true, true},
					} {
						out = append(out, Config{
							Combiner:        comb,
							SelectionBypass: bypass,
							Partition:       kind,
							Shards:          shards,
							Threads:         4,
							CheckInvariants: true,
							OverlapDelivery: mode.overlap,
							WorkStealing:    mode.steal,
						})
					}
				}
			}
		}
	}
	return out
}

// TestShardedMatchesSingleShard is the tentpole parity gate: every
// sharded configuration must produce values identical to the single-shard
// reference, under CheckInvariants, for a program with real cross-shard
// traffic (SSSP floods across the whole grid).
func TestShardedMatchesSingleShard(t *testing.T) {
	g := gridForCheckpoint(t)
	ref, refRep, err := Run(g, Config{Combiner: CombinerSpin, Threads: 4, CheckInvariants: true}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ValuesDense()
	for _, cfg := range shardedVersions() {
		name := cfg.VersionName()
		e, rep, err := Run(g, cfg, ssspProg(1))
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
			if got[i] != want[i] {
				t.Fatalf("%s: dist[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
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
		if s.ShardMessages != nil || s.ShardNextFrontier != nil || s.CrossShardMessages != 0 {
			t.Fatalf("step %d: single-shard report has shard fields: %+v", si, s)
		}
		if s.EarlyDeliveredBatches != 0 || s.StolenTasks != 0 || s.SkippedShards != 0 {
			t.Fatalf("step %d: single-shard report has overlap/scheduler fields: %+v", si, s)
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

// TestV1RestoreIntoShardedEngine checks the legacy flat v1 format scatters
// correctly onto a sharded engine (v1 predates shard topology, so it is
// accepted into any layout).
func TestV1RestoreIntoShardedEngine(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, Threads: 2}
	e, err := New(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.writeCheckpointV1(&buf, u32Codec{}, u32Codec{}); err != nil {
		t.Fatal(err)
	}
	scfg := Config{Combiner: CombinerSpin, Shards: 3, Threads: 2, CheckInvariants: true}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), g, scfg, ssspProg(1), u32Codec{}, u32Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(); err != nil {
		t.Fatal(err)
	}
	want, got := e.ValuesDense(), restored.ValuesDense()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, got[i], want[i])
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
	} else if _, lockFree := e.shards[1].mb.(*pullMailbox[uint32]); e.cfg.Direction != DirectionPull || !lockFree {
		t.Fatalf("pull+shards built direction=%v inbox=%T, want DirectionPull over *pullMailbox", e.cfg.Direction, e.shards[1].mb)
	}
	// Overlap and stealing are shard-scheduler features: meaningless (and
	// rejected) on the flat engine, whether Shards is unset or exactly 1.
	for _, shards := range []int{0, 1} {
		if _, err := New(g, Config{Shards: shards, OverlapDelivery: true}, prog); err == nil || !strings.Contains(err.Error(), "OverlapDelivery") {
			t.Fatalf("overlap with Shards=%d: %v", shards, err)
		}
		if _, err := New(g, Config{Shards: shards, WorkStealing: true}, prog); err == nil || !strings.Contains(err.Error(), "WorkStealing") {
			t.Fatalf("stealing with Shards=%d: %v", shards, err)
		}
	}
	cfg := Config{Shards: 4, Partition: PartitionHash}
	if name := cfg.VersionName(); !strings.Contains(name, "shards4") || !strings.Contains(name, "hash") {
		t.Fatalf("VersionName %q does not name the shard config", name)
	}
	cfg = Config{Shards: 4, OverlapDelivery: true, WorkStealing: true}
	if name := cfg.VersionName(); !strings.Contains(name, "overlap") || !strings.Contains(name, "steal") {
		t.Fatalf("VersionName %q does not name the overlap/steal modes", name)
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
