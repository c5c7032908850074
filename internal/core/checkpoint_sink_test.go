package core

import (
	"encoding/binary"
	"hash/crc32"
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
