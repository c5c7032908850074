package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"strings"
	"testing"
)

// captureCheckpoints runs SSSP on the checkpoint grid under cfg and
// returns every checkpoint the run wrote (v2 format).
func captureCheckpoints(t testing.TB, cfg Config, every int) [][]byte {
	t.Helper()
	g := gridForCheckpoint(t)
	e, err := New(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	var dumps [][]byte
	if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
		Every: every,
		Sink: func(int) (io.Writer, error) {
			dumps = append(dumps, nil)
			idx := len(dumps) - 1
			return writerFunc(func(p []byte) (int, error) {
				dumps[idx] = append(dumps[idx], p...)
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
	if len(dumps) == 0 {
		t.Fatal("no checkpoints taken")
	}
	return dumps
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// captureV1 writes the legacy-format checkpoint of a mid-run barrier:
// hostile input now, which Restore must refuse and never panic on.
func captureV1(t testing.TB, cfg Config) []byte {
	t.Helper()
	g := gridForCheckpoint(t)
	e, err := New(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	wrote := false
	if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
		Every: 3,
		Sink: func(int) (io.Writer, error) {
			if wrote {
				return io.Discard, nil
			}
			wrote = true
			return &legacyWriter{e: e, buf: &dump}, nil
		},
		VCodec: u32Codec{}, MCodec: u32Codec{},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return dump.Bytes()
}

// legacyWriter swallows the engine's v2 write and replaces the captured
// bytes with the v1 encoding of the same barrier, taken synchronously at
// the first Write call (the barrier state is live then).
type legacyWriter struct {
	e    *Engine[uint32, uint32]
	buf  *bytes.Buffer
	done bool
}

func (lw *legacyWriter) Write(p []byte) (int, error) {
	if !lw.done {
		lw.done = true
		if err := lw.e.writeCheckpointV1(lw.buf, u32Codec{}, u32Codec{}); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// tryRestore must never panic, whatever the input; errors are expected.
func tryRestore(t testing.TB, data []byte) {
	t.Helper()
	g := gridForCheckpoint(t)
	for _, cfg := range []Config{
		{Combiner: CombinerSpin},
		{Combiner: CombinerSpin, SelectionBypass: true},
	} {
		e, err := Restore(bytes.NewReader(data), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
		if err != nil {
			continue
		}
		// A structurally valid checkpoint must also run to completion.
		if _, err := e.Run(); err != nil {
			continue
		}
	}
	// VerifyCheckpoint walks the same bytes without an engine; it too
	// must only ever return an error.
	_, _ = VerifyCheckpoint(bytes.NewReader(data))
}

// FuzzRestore feeds Restore arbitrary bytes: like the graphio parsers
// (internal/graphio/fuzz_test.go), it must reject hostile input with an
// error — never panic, hang, or allocate absurdly. Every declared length
// in the v2 format is validated against caps derived from the engine's
// own slot count and codec sizes before any allocation, so a fabricated
// multi-gigabyte section length dies at the bounds check.
func FuzzRestore(f *testing.F) {
	v2 := captureCheckpoints(f, Config{Combiner: CombinerSpin}, 3)
	v2bypass := captureCheckpoints(f, Config{Combiner: CombinerSpin, SelectionBypass: true}, 3)
	v1 := captureV1(f, Config{Combiner: CombinerSpin})

	sharded, err := os.ReadFile(shardedFixture)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(v2[0])
	f.Add(v2bypass[0])
	f.Add(v1)
	f.Add(sharded)
	// CRC-valid frontiers that disagree with the mail.
	unlisted, _, unmailed, _ := frontierMailMismatches(f, v2bypass[0])
	f.Add(unlisted)
	f.Add(unmailed)
	// Truncations at structure boundaries.
	for _, cut := range []int{0, 3, 4, 20, 36, 40, 48, len(v2[0]) - 5, len(v2[0]) - 1} {
		if cut <= len(v2[0]) {
			f.Add(v2[0][:cut])
		}
	}
	// Bit flips in the header, a section length, a payload, a CRC.
	for _, bit := range []int{0, 37, 320, 350, 2000, (len(v2[0]) - 2) * 8} {
		mut := append([]byte(nil), v2[0]...)
		mut[bit/8] ^= 1 << (bit % 8)
		f.Add(mut)
	}
	// Hostile lengths: header slot count, section length, frontier count.
	huge := append([]byte(nil), v2[0]...)
	binary.LittleEndian.PutUint64(huge[12:], 1<<60) // slots
	f.Add(huge)
	huge2 := append([]byte(nil), v2[0]...)
	binary.LittleEndian.PutUint64(huge2[40:], 1<<61) // first section length
	f.Add(huge2)
	v1huge := append([]byte(nil), v1...)
	binary.LittleEndian.PutUint64(v1huge[4:], 1<<50) // v1 superstep
	f.Add(v1huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		tryRestore(t, data)
	})
}

// TestRestoreV2DetectsCorruption flips bytes across an entire v2
// checkpoint, one position at a time, and requires every mutation to be
// rejected by Restore or VerifyCheckpoint — the CRC32C sections plus the
// header/footer structure leave no unprotected byte.
func TestRestoreV2DetectsCorruption(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, SelectionBypass: true}
	dumps := captureCheckpoints(t, cfg, 3)
	data := dumps[0]
	if _, err := Restore(bytes.NewReader(data), g, cfg, ssspProg(1), u32Codec{}, u32Codec{}); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	if _, err := VerifyCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine checkpoint failed verification: %v", err)
	}
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		if _, err := VerifyCheckpoint(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d passed verification", pos)
		}
	}
	// Truncation at every length is caught too.
	for cut := 0; cut < len(data); cut++ {
		if _, err := VerifyCheckpoint(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes passed verification", cut)
		}
	}
}

// TestRestoreRejectsLegacyV1 pins what is left of the v1 format: a
// legacy checkpoint is refused by name — not as "bad magic" — by Restore
// and by VerifyCheckpoint, so FileSink.LatestGood skips it like any
// other file Restore would not take.
func TestRestoreRejectsLegacyV1(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, Threads: 2}
	v1 := captureV1(t, cfg)
	_, err := Restore(bytes.NewReader(v1), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
	if err == nil || !strings.Contains(err.Error(), "legacy v1 format") {
		t.Fatalf("Restore(v1) = %v, want an error naming the legacy v1 format", err)
	}
	if _, err := VerifyCheckpoint(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "legacy v1 format") {
		t.Fatalf("VerifyCheckpoint(v1) = %v, want an error naming the legacy v1 format", err)
	}
}
