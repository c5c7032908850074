package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/checkpoint_v2*.golden fixtures from the current writer")

// goldenCases are the pinned layouts: one file (header shard field 0,
// one section triplet), written by the engine as it stood before
// sharding came and went, so it doubles as the cross-version restore
// proof.
var goldenCases = []struct {
	name, path string
}{
	{"flat", "testdata/checkpoint_v2.golden"},
}

// shardedFixture is a checkpoint a 4-shard run of goldenProg wrote at
// the last commit that had Config.Shards (header shard field 4, a
// topology section, one triplet per shard): a file this engine must
// refuse by name and never misparse.
const shardedFixture = "testdata/checkpoint_v2_shards4.rejected"

// goldenProg is ssspProg plus two aggregators, so the fixture exercises
// every v2 section: values, activity, mailboxes, the bypass frontier and
// a multi-entry aggregator table.
func goldenProg() Program[uint32, uint32] {
	base := ssspProg(1)
	return Program[uint32, uint32]{
		Combine: base.Combine,
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			ctx.Aggregate("ran", 1)
			base.Compute(ctx, v)
			ctx.Aggregate("min-dist", float64(*v.Value()))
		},
		Aggregators: []Aggregator{{"ran", AggSum}, {"min-dist", AggMin}},
	}
}

func goldenConfig() Config {
	// Single-threaded, spinlock, bypass: every byte of the barrier state
	// is deterministic, so the fixture can be compared byte-for-byte.
	return Config{Combiner: CombinerSpin, Threads: 1, SelectionBypass: true}
}

func goldenEngine(t testing.TB) *Engine[uint32, uint32] {
	t.Helper()
	e, err := New(gridForCheckpoint(t), goldenConfig(), goldenProg())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// goldenCheckpoint runs the golden engine and returns the checkpoint
// taken at barrier 4 (mid-run: non-trivial values, mail in flight, a
// non-empty frontier, aggregator state from barrier 3).
func goldenCheckpoint(t testing.TB) []byte {
	t.Helper()
	e := goldenEngine(t)
	var dump []byte
	if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
		Every: 4,
		Sink: func(s int) (io.Writer, error) {
			if s != 4 {
				return io.Discard, nil
			}
			return writerFunc(func(p []byte) (int, error) {
				dump = append(dump, p...)
				return len(p), nil
			}), nil
		},
		VCodec: u32Codec{}, MCodec: u32Codec{},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dump) == 0 {
		t.Fatal("no checkpoint captured at barrier 4")
	}
	return dump
}

// TestCheckpointV2Golden pins the on-disk format: the writer must
// reproduce the checked-in fixtures byte for byte. Accidental format
// drift — reordered sections, a changed header field, a different CRC
// polynomial — fails here instead of silently orphaning old checkpoints.
// Deliberate format changes bump the magic to a new version and add a
// new fixture; they do not rewrite these.
func TestCheckpointV2Golden(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			got := goldenCheckpoint(t)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(gc.path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(gc.path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", gc.path, len(got))
				return
			}
			want, err := os.ReadFile(gc.path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				for i := 0; i < min(len(got), len(want)); i++ {
					if got[i] != want[i] {
						t.Fatalf("checkpoint v2 format drift: byte %d = %#02x, fixture has %#02x (lengths %d vs %d)", i, got[i], want[i], len(got), len(want))
					}
				}
				t.Fatalf("checkpoint v2 format drift: length %d, fixture %d", len(got), len(want))
			}
		})
	}
}

// TestCheckpointV2GoldenRestores proves the fixtures are live: restoring
// each and finishing the run must match an uninterrupted run exactly.
func TestCheckpointV2GoldenRestores(t *testing.T) {
	refE := goldenEngine(t)
	refRep, err := refE.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := refE.ValuesDense()
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			fixture, err := os.ReadFile(gc.path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
			}
			restored, err := Restore(bytes.NewReader(fixture), gridForCheckpoint(t), goldenConfig(), goldenProg(), u32Codec{}, u32Codec{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := restored.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.FirstSuperstep != 4 || rep.Supersteps != refRep.Supersteps {
				t.Fatalf("fixture resumed %d→%d, reference ended at %d", rep.FirstSuperstep, rep.Supersteps, refRep.Supersteps)
			}
			for i, got := range restored.ValuesDense() {
				if got != want[i] {
					t.Fatalf("fixture resume: dist[%d] = %d, want %d", i, got, want[i])
				}
			}
		})
	}
}

// TestCheckpointRejectsMultiShard pins how a checkpoint from the removed
// sharded engine fails: Restore and VerifyCheckpoint both return
// ErrShardedCheckpoint, naming the feature, before any section is
// parsed — while a shard field of 1, which no engine ever wrote, stays
// the corrupt-header error it always was.
func TestCheckpointRejectsMultiShard(t *testing.T) {
	fixture, err := os.ReadFile(shardedFixture)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrShardedCheckpoint) || !strings.Contains(err.Error(), "Config.Shards") || !strings.Contains(err.Error(), "4 shards") {
			t.Fatalf("%s = %v, want ErrShardedCheckpoint naming Config.Shards and the file's 4 shards", what, err)
		}
	}
	_, err = Restore(bytes.NewReader(fixture), gridForCheckpoint(t), goldenConfig(), goldenProg(), u32Codec{}, u32Codec{})
	check("Restore", err)
	_, err = VerifyCheckpoint(bytes.NewReader(fixture))
	check("VerifyCheckpoint", err)
	// The header alone decides: no section after it is looked at.
	_, err = VerifyCheckpoint(bytes.NewReader(fixture[:4+32+4]))
	check("VerifyCheckpoint(header only)", err)

	one := append([]byte(nil), goldenCheckpoint(t)...)
	binary.LittleEndian.PutUint32(one[4+28:], 1)
	binary.LittleEndian.PutUint32(one[4+32:], crc32.Checksum(one[4:4+32], crcTable))
	_, rerr := Restore(bytes.NewReader(one), gridForCheckpoint(t), goldenConfig(), goldenProg(), u32Codec{}, u32Codec{})
	_, verr := VerifyCheckpoint(bytes.NewReader(one))
	for what, err := range map[string]error{"Restore": rerr, "VerifyCheckpoint": verr} {
		if err == nil || errors.Is(err, ErrShardedCheckpoint) || !strings.Contains(err.Error(), "corrupt header") {
			t.Fatalf("%s(shard field 1) = %v, want the corrupt-header error", what, err)
		}
	}
}
