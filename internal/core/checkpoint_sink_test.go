package core

import (
	"encoding/binary"
	"hash/crc32"
	"os"
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

// TestFileSinkOwnersCannotDestroyEachOther is the multi-writer
// regression the resident service exposed: two sinks sharing one
// directory — as two concurrent jobs would — must not prune or shadow
// each other's latest-good checkpoints, even with an aggressive keep
// bound.
func TestFileSinkOwnersCannotDestroyEachOther(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileSinkOwned(dir, 1, "job-a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewFileSinkOwned(dir, 1, "job-b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Interleave commits; keep=1 prunes after every commit, the exact
	// pattern that used to delete the other writer's files.
	commitCheckpoint(t, a, 2)
	commitCheckpoint(t, b, 3)
	commitCheckpoint(t, a, 4)
	commitCheckpoint(t, b, 5)
	commitCheckpoint(t, a, 6)

	check := func(sink *FileSink, want int) {
		t.Helper()
		r, got, found, err := sink.LatestGood()
		if err != nil || !found {
			t.Fatalf("LatestGood(%s) = found=%v err=%v, want a checkpoint", sink.Owner(), found, err)
		}
		defer r.Close()
		if got != want {
			t.Fatalf("LatestGood(%s) = superstep %d, want %d", sink.Owner(), got, want)
		}
	}
	check(a, 6)
	check(b, 5)
	if steps := a.committed(); len(steps) != 1 {
		t.Fatalf("owner a retained %v, want exactly its keep=1 newest", steps)
	}
	if steps := b.committed(); len(steps) != 1 {
		t.Fatalf("owner b retained %v, want exactly its keep=1 newest", steps)
	}
}

// TestFileSinkLegacyAndOwnedNamespacesAreDisjoint pins the naming
// discipline both ways: an unowned sink never sees (or prunes) owned
// files, and an owned sink never sees unowned ones — including the
// numeric-owner case whose name an unstrict parser would misread.
func TestFileSinkLegacyAndOwnedNamespacesAreDisjoint(t *testing.T) {
	dir := t.TempDir()
	legacy, err := NewFileSink(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	owned, err := NewFileSinkOwned(dir, 1, "7")
	if err != nil {
		t.Fatal(err)
	}
	defer owned.Close()

	commitCheckpoint(t, owned, 9)
	commitCheckpoint(t, legacy, 4)
	commitCheckpoint(t, legacy, 8) // prunes legacy 4, must not touch ckpt-7-…

	if steps := legacy.committed(); len(steps) != 1 || steps[0] != 8 {
		t.Fatalf("legacy sink sees %v, want [8]", steps)
	}
	if steps := owned.committed(); len(steps) != 1 || steps[0] != 9 {
		t.Fatalf("owned sink sees %v, want [9]", steps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want one file per namespace", names)
	}
}

// TestFileSinkCollisionIsConstructionTimeError: the same (dir, owner)
// pair cannot have two live sinks in one process; Close releases the
// claim without deleting recoverable state.
func TestFileSinkCollisionIsConstructionTimeError(t *testing.T) {
	dir := t.TempDir()
	first, err := NewFileSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileSink(dir, 0); err == nil || !strings.Contains(err.Error(), "already has") {
		t.Fatalf("second unowned sink on one dir: err = %v, want collision error", err)
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

	if _, err := NewFileSinkOwned(dir, 0, "x"); err != nil {
		t.Fatalf("different owner must coexist: %v", err)
	}
	if _, err := NewFileSinkOwned(dir, 0, "x"); err == nil {
		t.Fatal("duplicate owner accepted")
	}
}

// TestFileSinkOwnerValidation pins the owner grammar.
func TestFileSinkOwnerValidation(t *testing.T) {
	dir := t.TempDir()
	for _, owner := range []string{"", "a/b", "a b", "j\x00b"} {
		if _, err := NewFileSinkOwned(dir, 0, owner); err == nil {
			t.Fatalf("owner %q accepted", owner)
		}
	}
	ok, err := NewFileSinkOwned(dir, 0, "job-1.retry_2")
	if err != nil {
		t.Fatal(err)
	}
	ok.Close()
}
