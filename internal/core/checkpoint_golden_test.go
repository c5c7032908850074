package core

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/checkpoint_v2*.golden fixtures from the current writer")

// goldenCases are the pinned layouts: the one-shard file (shard field 0,
// one section triplet — the format checkpoints had before sharding) and
// a 4-shard file (topology section, one triplet per shard). Both
// fixtures were written by the engine as it stood before the flat and
// sharded checkpoint bodies were merged into one, so they double as the
// cross-version restore proof.
var goldenCases = []struct {
	name, path string
	shards     int
}{
	{"flat", "testdata/checkpoint_v2.golden", 0},
	{"shards4", "testdata/checkpoint_v2_shards4.golden", 4},
}

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
	}
}

func goldenConfig(shards int) Config {
	// Single-threaded, spinlock, bypass: every byte of the barrier state
	// is deterministic, so the fixture can be compared byte-for-byte.
	return Config{Combiner: CombinerSpin, Threads: 1, SelectionBypass: true, Shards: shards}
}

func goldenEngine(t testing.TB, shards int) *Engine[uint32, uint32] {
	t.Helper()
	e, err := New(gridForCheckpoint(t), goldenConfig(shards), goldenProg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterAggregator("ran", AggSum); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterAggregator("min-dist", AggMin); err != nil {
		t.Fatal(err)
	}
	return e
}

// goldenCheckpoint runs the golden engine and returns the checkpoint
// taken at barrier 4 (mid-run: non-trivial values, mail in flight, a
// non-empty frontier, aggregator state from barrier 3).
func goldenCheckpoint(t testing.TB, shards int) []byte {
	t.Helper()
	e := goldenEngine(t, shards)
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
			got := goldenCheckpoint(t, gc.shards)
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
// each and finishing the run must match an uninterrupted run exactly —
// so the one-shard and the 4-shard file, both written before the
// checkpoint bodies were unified, resume to the same values.
func TestCheckpointV2GoldenRestores(t *testing.T) {
	refE := goldenEngine(t, 0)
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
			restored, err := Restore(bytes.NewReader(fixture), gridForCheckpoint(t), goldenConfig(gc.shards), goldenProg(), u32Codec{}, u32Codec{})
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RegisterAggregator("ran", AggSum); err != nil {
				t.Fatal(err)
			}
			if err := restored.RegisterAggregator("min-dist", AggMin); err != nil {
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
