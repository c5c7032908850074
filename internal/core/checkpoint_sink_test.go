package core

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// commitCheckpoint writes a minimal valid checkpoint (a zero-slot v2
// record: sealed header, five empty sections, footer) through the sink's
// transactional writer: enough for VerifyCheckpoint/LatestGood to accept
// it without standing up an engine.
func commitCheckpoint(t *testing.T, sink *FileSink, superstep int) {
	t.Helper()
	w, err := sink.Sink(superstep)
	if err != nil {
		t.Fatalf("Sink(%d): %v", superstep, err)
	}
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(superstep))
	rec := append(checkpointMagicV2[:], hdr[:]...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(hdr[:], crcTable))
	rec = append(rec, make([]byte, sectionCount*(8+4))...) // length 0, CRC32C of nothing = 0
	rec = append(rec, checkpointFooter[:]...)
	if _, err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.(CheckpointCommitter).Commit(); err != nil {
		t.Fatalf("Commit(%d): %v", superstep, err)
	}
}

// TestFileSinkCollisionIsConstructionTimeError: one directory cannot
// have two live sinks in one process; Close releases the claim without
// deleting recoverable state.
func TestFileSinkCollisionIsConstructionTimeError(t *testing.T) {
	dir := t.TempDir()
	first, err := NewFileSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileSink(dir, 0); err == nil || !strings.Contains(err.Error(), "already has") {
		t.Fatalf("second sink on one dir: err = %v, want collision error", err)
	}
	commitCheckpoint(t, first, 3)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}

	reopened, err := NewFileSink(dir, 0)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer reopened.Close()
	r, got, found, err := reopened.LatestGood()
	if err != nil || !found || got != 3 {
		t.Fatalf("state lost across Close/reopen: %d/%v/%v", got, found, err)
	}
	r.Close()
}

// TestFileSinkMakesDirAtFirstSink: construction touches no file, a
// missing directory reads as "no checkpoint", and the first Sink makes
// the directory (parents included) before committing into it.
func TestFileSinkMakesDirAtFirstSink(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run", "job")
	sink, err := NewFileSink(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if _, err := os.Stat(filepath.Dir(dir)); !os.IsNotExist(err) {
		t.Fatalf("NewFileSink made something on disk: stat parent = %v", err)
	}
	if sink.Made() {
		t.Fatal("Made before any Sink call")
	}
	if r, _, found, err := sink.LatestGood(); found || err != nil {
		if r != nil {
			r.Close()
		}
		t.Fatalf("LatestGood on a missing dir: found=%v err=%v, want none and no error", found, err)
	}
	for _, step := range []int{2, 4, 6} {
		commitCheckpoint(t, sink, step)
	}
	if !sink.Made() {
		t.Fatal("Made false after Sink made the directory")
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0].Name() != checkpointName(4) || names[1].Name() != checkpointName(6) {
		t.Fatalf("dir after three commits with keep 2 holds %v", names)
	}
}

// TestFileSinkUnmakeableDir: a directory that cannot be made fails the
// Sink call, as any other checkpoint write error does.
func TestFileSinkUnmakeableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sink, err := NewFileSink(filepath.Join(file, "ckpt"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if _, err := sink.Sink(8); err == nil || !strings.Contains(err.Error(), "checkpoint dir") {
		t.Fatalf("Sink under a regular file: err = %v, want a checkpoint dir error", err)
	}
	if sink.Made() {
		t.Fatal("Made after a failed mkdir")
	}
}
