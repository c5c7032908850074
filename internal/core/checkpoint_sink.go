package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// CheckpointCommitter is the optional transactional side of a checkpoint
// sink's writer. When the writer returned by Checkpointer.Sink implements
// it, the engine calls Commit after the checkpoint is fully written and
// Abort after a failed write, so the sink can publish atomically (see
// FileSink) instead of exposing half-written state.
type CheckpointCommitter interface {
	// Commit publishes the fully-written checkpoint.
	Commit() error
	// Abort discards a checkpoint whose write failed partway.
	Abort() error
}

// FileSink stores checkpoints as files in one directory, atomically:
// each checkpoint is written to a temp file, fsynced, and renamed to its
// final name `ckpt-<superstep>.ipck` only on Commit, so a crash — or an
// injected fault — during a write can never leave a torn file under a
// final name. LatestGood then gives a recovery supervisor the newest
// checkpoint that passes full integrity verification, skipping any that
// were corrupted after commit (e.g. by a disk-level bit flip).
//
// A sink owns its directory exclusively while open: pruning, discovery
// and commit all assume a single writer per directory, so construction
// registers the directory process-wide and fails when a live sink
// already holds it — two concurrent jobs can therefore never prune each
// other's latest-good files by accident. Jobs that run side by side use
// one directory each. Close releases the registration (for same-process
// sequential reuse of a directory, e.g. a CLI resume).
//
// The directory is made by the first Sink call, not by construction: a
// run that ends before its first checkpoint barrier creates nothing, and
// Made tells its owner whether there is anything to clean up.
type FileSink struct {
	dir string
	// keep bounds how many committed checkpoints are retained; each
	// Commit prunes the oldest beyond this count. 0 keeps everything.
	keep int

	mu     sync.Mutex
	regKey string // "" once Close released the registration
	made   bool   // a Sink call has made (or found) dir
}

// sinkRegistry records the directories with a live sink in this
// process, so a second writer over the same directory is a
// construction-time error instead of silent mutual pruning.
var sinkRegistry = struct {
	sync.Mutex
	open map[string]bool
}{open: map[string]bool{}}

func sinkKey(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	return filepath.Clean(dir)
}

// NewFileSink returns a sink storing up to keep committed checkpoints in
// dir (keep ≤ 0 keeps all). It touches no file: dir need not exist
// until the first Sink call makes it. The directory is claimed
// exclusively until Close: a second open sink on the same directory
// fails to construct.
func NewFileSink(dir string, keep int) (*FileSink, error) {
	if keep < 0 {
		keep = 0
	}
	key := sinkKey(dir)
	sinkRegistry.Lock()
	defer sinkRegistry.Unlock()
	if sinkRegistry.open[key] {
		return nil, fmt.Errorf("core: checkpoint dir %s already has a sink live in this process; give each job its own directory or Close the previous sink first", dir)
	}
	sinkRegistry.open[key] = true
	return &FileSink{dir: dir, keep: keep, regKey: key}, nil
}

// Close releases the sink's exclusive claim on its directory so a later
// sink may reopen it. It never touches committed checkpoints —
// recoverable state survives Close — and is idempotent.
func (fs *FileSink) Close() error {
	fs.mu.Lock()
	key := fs.regKey
	fs.regKey = ""
	fs.mu.Unlock()
	if key != "" {
		sinkRegistry.Lock()
		delete(sinkRegistry.open, key)
		sinkRegistry.Unlock()
	}
	return nil
}

// Dir returns the sink's directory.
func (fs *FileSink) Dir() string { return fs.dir }

// Made reports whether a Sink call has made the sink's directory (or
// found it present), i.e. whether the sink can have left files there.
func (fs *FileSink) Made() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.made
}

// checkpointName returns the final file name for a superstep.
func checkpointName(superstep int) string {
	return fmt.Sprintf("ckpt-%08d.ipck", superstep)
}

// parseCheckpointName extracts the superstep from a final file name,
// `ckpt-<superstep>.ipck`.
func parseCheckpointName(name string) (int, bool) {
	var superstep int
	if n, err := fmt.Sscanf(name, "ckpt-%d.ipck", &superstep); n != 1 || err != nil {
		return 0, false
	}
	return superstep, true
}

// Sink is the Checkpointer.Sink function: it opens a temp file in the
// sink's directory, making the directory on the first call, whose
// Commit publishes it under the final name.
func (fs *FileSink) Sink(superstep int) (io.Writer, error) {
	if err := fs.mkdir(); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(fs.dir, "ckpt-*.tmp")
	if err != nil {
		return nil, err
	}
	return &fileCheckpoint{sink: fs, f: f, superstep: superstep}, nil
}

// mkdir makes the sink's directory once.
func (fs *FileSink) mkdir() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.made {
		return nil
	}
	if err := os.MkdirAll(fs.dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	fs.made = true
	return nil
}

// fileCheckpoint is one in-flight checkpoint file.
type fileCheckpoint struct {
	sink      *FileSink
	f         *os.File
	superstep int
}

func (fc *fileCheckpoint) Write(p []byte) (int, error) { return fc.f.Write(p) }

// Commit fsyncs and renames the temp file to its final name, then prunes
// old checkpoints beyond the sink's keep bound.
func (fc *fileCheckpoint) Commit() error {
	if err := fc.f.Sync(); err != nil {
		_ = fc.f.Close()
		_ = os.Remove(fc.f.Name())
		return err
	}
	if err := fc.f.Close(); err != nil {
		_ = os.Remove(fc.f.Name())
		return err
	}
	final := filepath.Join(fc.sink.dir, checkpointName(fc.superstep))
	if err := os.Rename(fc.f.Name(), final); err != nil {
		_ = os.Remove(fc.f.Name())
		return err
	}
	fc.sink.prune()
	return nil
}

// Abort discards the temp file.
func (fc *fileCheckpoint) Abort() error {
	_ = fc.f.Close()
	return os.Remove(fc.f.Name())
}

// committed lists the committed checkpoint supersteps in the sink's
// directory, ascending; a missing directory holds none.
func (fs *FileSink) committed() []int {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil
	}
	var steps []int
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if s, ok := parseCheckpointName(ent.Name()); ok {
			steps = append(steps, s)
		}
	}
	sort.Ints(steps)
	return steps
}

// prune removes the oldest committed checkpoints beyond the keep bound.
func (fs *FileSink) prune() {
	if fs.keep <= 0 {
		return
	}
	steps := fs.committed()
	for len(steps) > fs.keep {
		_ = os.Remove(filepath.Join(fs.dir, checkpointName(steps[0])))
		steps = steps[1:]
	}
}

// LatestGood returns the newest committed checkpoint that passes full
// integrity verification, or found=false when none exists (as in a
// directory no Sink has made yet). Checkpoints failing verification
// (torn, bit-flipped) are skipped, newest-first, so a recovery
// supervisor falls back to the last good barrier instead of failing on
// the corrupt one.
func (fs *FileSink) LatestGood() (r io.ReadCloser, superstep int, found bool, err error) {
	steps := fs.committed()
	for i := len(steps) - 1; i >= 0; i-- {
		path := filepath.Join(fs.dir, checkpointName(steps[i]))
		f, oerr := os.Open(path)
		if oerr != nil {
			continue
		}
		cs, verr := VerifyCheckpoint(f)
		if verr != nil || cs != steps[i] {
			_ = f.Close()
			continue
		}
		if _, serr := f.Seek(0, io.SeekStart); serr != nil {
			_ = f.Close()
			return nil, 0, false, serr
		}
		return f, steps[i], true, nil
	}
	return nil, 0, false, nil
}

// VerifyCheckpoint structurally validates a checkpoint stream and
// returns its superstep. Every section is streamed through its CRC32C
// and the footer checked, so truncation and bit flips anywhere in the
// record are detected without decoding values (and without large
// allocations). A legacy v1 stream and a multi-shard one
// (ErrShardedCheckpoint) are rejected by name, like Restore does, so
// LatestGood never offers a file Restore would refuse.
func VerifyCheckpoint(r io.Reader) (int, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr, err := readCheckpointHeader(br)
	if err != nil {
		return 0, err
	}
	var cbuf [4]byte
	for s := 0; s < sectionCount; s++ {
		var lbuf [8]byte
		if _, err := io.ReadFull(br, lbuf[:]); err != nil {
			return 0, fmt.Errorf("core: checkpoint section %d length: %w", s, err)
		}
		n := binary.LittleEndian.Uint64(lbuf[:])
		if n > maxCheckpointSuperstep { // reuse the implausibility bound: no real section is ~1 TiB
			return 0, fmt.Errorf("core: checkpoint section %d declares %d bytes (corrupt or hostile)", s, n)
		}
		crc := crc32.New(crcTable)
		if _, err := io.CopyN(crc, br, int64(n)); err != nil {
			return 0, fmt.Errorf("core: checkpoint section %d payload: %w", s, err)
		}
		if _, err := io.ReadFull(br, cbuf[:]); err != nil {
			return 0, fmt.Errorf("core: checkpoint section %d checksum: %w", s, err)
		}
		if want := binary.LittleEndian.Uint32(cbuf[:]); want != crc.Sum32() {
			return 0, fmt.Errorf("core: checkpoint section %d checksum mismatch (stored %08x, computed %08x)", s, want, crc.Sum32())
		}
	}
	var footer [4]byte
	if _, err := io.ReadFull(br, footer[:]); err != nil {
		return 0, fmt.Errorf("core: checkpoint footer: %w (truncated checkpoint)", err)
	}
	if footer != checkpointFooter {
		return 0, errors.New("core: bad checkpoint footer (truncated or corrupt)")
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return 0, errors.New("core: trailing bytes after checkpoint footer")
	}
	return int(binary.LittleEndian.Uint64(hdr[0:])), nil
}
