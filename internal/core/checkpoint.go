package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"ipregel/internal/graph"
)

// Checkpointing implements the Pregel fault-tolerance mechanism the
// vertex-centric model inherits (Malewicz et al. 2010, which the paper
// builds on): at superstep barriers the engine persists vertex values,
// activity flags, pending mailboxes, aggregator state and — under
// selection bypass — the next frontier, so a crashed computation can
// resume from the last barrier instead of superstep 0. The iPregel paper
// itself does not evaluate fault tolerance; this is the standard-model
// extension a production framework is expected to carry.
//
// Checkpoints are written in format v2: a versioned header, CRC32C-
// protected sections with explicit lengths, and a footer that detects
// truncation, so a torn or bit-flipped checkpoint is rejected at restore
// (or skipped by FileSink.LatestGood) instead of silently resuming from
// corrupt state. The legacy v1 format (magic "IPCK", no integrity data,
// no aggregator section) is no longer read: Restore and VerifyCheckpoint
// name it in their error.

// Codec serialises fixed-size values for checkpoints. The codecs of
// internal/pregelplus (Uint32Codec, Float64Codec) satisfy this interface.
type Codec[T any] interface {
	Size() int
	Encode(buf []byte, v T)
	Decode(buf []byte) T
}

// Checkpointer configures periodic state dumps during Run.
type Checkpointer[V, M any] struct {
	// Every triggers a checkpoint after each multiple of this many
	// completed supersteps (≥1).
	Every int
	// Sink returns the destination for the checkpoint taken after the
	// given superstep. The writer is not closed by the engine; if it
	// implements CheckpointCommitter the engine calls Commit after a
	// fully-written checkpoint and Abort after a failed one (see
	// FileSink for the atomic temp-file implementation).
	Sink func(superstep int) (io.Writer, error)
	// VCodec and MCodec serialise vertex values and pending messages.
	VCodec Codec[V]
	MCodec Codec[M]
}

// SetCheckpointer installs periodic checkpointing; call before Run.
func (e *Engine[V, M]) SetCheckpointer(cp Checkpointer[V, M]) error {
	if e.ran {
		return errors.New("core: cannot set a checkpointer after Run")
	}
	if cp.Every < 1 || cp.Sink == nil || cp.VCodec == nil || cp.MCodec == nil {
		return errors.New("core: checkpointer needs Every>=1, a Sink and both codecs")
	}
	e.checkpoint = &cp
	return nil
}

var (
	checkpointMagicV1 = [4]byte{'I', 'P', 'C', 'K'}
	checkpointMagicV2 = [4]byte{'I', 'P', 'C', '2'}
	checkpointFooter  = [4]byte{'K', 'C', 'P', 'I'}
)

// checkMagic accepts the v2 magic and names the two ways a stream can
// fail to carry it: the legacy format this engine once wrote, and bytes
// that were never a checkpoint.
func checkMagic(magic [4]byte) error {
	switch magic {
	case checkpointMagicV2:
		return nil
	case checkpointMagicV1:
		return fmt.Errorf("core: checkpoint is in the legacy v1 format (magic %q), which is no longer read; re-run from the start to write a v2 checkpoint", magic)
	}
	return fmt.Errorf("core: bad checkpoint magic %q", magic)
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this engine targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Format caps, mirroring graphio's Options.MaxVertices discipline: every
// length a checkpoint declares is validated against a bound derived from
// engine state the reader already trusts, before any allocation happens.
const (
	// maxCheckpointAggs bounds the aggregator count a header may declare.
	maxCheckpointAggs = 1 << 12
	// maxCheckpointSuperstep bounds the superstep counter a header may
	// declare; anything larger is corruption, not a plausible run.
	maxCheckpointSuperstep = 1 << 40
	// maxAggNameLen bounds one aggregator name (a u8 length prefix).
	maxAggNameLen = 255
)

// v2 section identifiers, in stream order.
const (
	sectionValues = iota
	sectionActive
	sectionMailbox
	sectionFrontier
	sectionAggregators
	sectionCount
)

// checkpointChunk is the size of the one buffer writeCheckpoint encodes
// every section's payload through.
const checkpointChunk = 16 << 10

// sectionWriter encodes the payload of each v2 section into one reused
// chunk; each time the chunk fills it is written out and folded into the
// section's CRC32C. That is one Write per chunk, not per slot, and no
// scratch that grows with |V|. bw keeps the first write error, which
// close returns.
type sectionWriter struct {
	bw    *bufio.Writer
	chunk []byte
	crc   uint32
}

// open starts a section whose payload is length bytes.
func (s *sectionWriter) open(length uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], length)
	s.bw.Write(b[:])
	s.crc = 0
}

// next returns the following n payload bytes for the caller to fill.
func (s *sectionWriter) next(n int) []byte {
	if len(s.chunk)+n > cap(s.chunk) {
		s.flush()
		if n > cap(s.chunk) {
			s.chunk = make([]byte, 0, n)
		}
	}
	s.chunk = s.chunk[:len(s.chunk)+n]
	return s.chunk[len(s.chunk)-n:]
}

func (s *sectionWriter) flush() {
	s.bw.Write(s.chunk)
	s.crc = crc32.Update(s.crc, crcTable, s.chunk)
	s.chunk = s.chunk[:0]
}

// close seals the section with its checksum.
func (s *sectionWriter) close() error {
	s.flush()
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], s.crc)
	_, err := s.bw.Write(b[:])
	return err
}

// writeCheckpoint dumps the barrier state in format v2: superstep,
// values, activity, current mailboxes, the bypass frontier and the
// aggregators' merged values, each section length-prefixed and CRC32C-
// sealed, the whole record closed by a footer marker.
func (e *Engine[V, M]) writeCheckpoint(w io.Writer, vc Codec[V], mc Codec[M]) error {
	aggs := e.agg.decl
	aggLen := 0
	for _, a := range aggs {
		if len(a.Name) > maxAggNameLen {
			return fmt.Errorf("core: aggregator name %q exceeds the %d-byte checkpoint limit", a.Name, maxAggNameLen)
		}
		aggLen += 1 + len(a.Name) + 1 + 8
	}
	n, vsize, msize := e.g.N(), vc.Size(), mc.Size()

	// bw keeps the first write error; each section's close and the final
	// Flush return it.
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(checkpointMagicV2[:])
	var hdr [36]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(e.superstep))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(vsize))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(msize))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(aggs)))
	// hdr[28:32] stays 0: it was the shard count of the removed
	// multi-shard layout (readCheckpointHeader rejects ≥ 2 by name).
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(hdr[:32], crcTable))
	bw.Write(hdr[:])

	sw := &sectionWriter{bw: bw, chunk: make([]byte, 0, checkpointChunk)}
	sw.open(uint64(n) * uint64(vsize))
	for _, v := range e.values {
		vc.Encode(sw.next(vsize), v)
	}
	if err := sw.close(); err != nil {
		return err
	}
	// Activity: one byte per slot. Selection bypass keeps no activity, and
	// every barrier it checkpoints has left all vertices halted, so its
	// section is zeros.
	sw.open(uint64(n))
	for lo := 0; lo < n; lo += 64 {
		var word uint64
		if e.active != nil {
			word = e.active[lo>>6]
		}
		b := sw.next(min(64, n-lo))
		for j := range b {
			b[j] = byte(word>>j) & 1
		}
	}
	if err := sw.close(); err != nil {
		return err
	}
	// Mailboxes: one flag byte per slot, the message payload after each
	// set flag. The length is computed from a pre-scan so the reader can
	// bound its work before parsing.
	occupied := 0
	for _, word := range e.buf.hasNow {
		occupied += bits.OnesCount64(word)
	}
	sw.open(uint64(n) + uint64(occupied)*uint64(msize))
	for slot := 0; slot < n; slot++ {
		m, ok := e.buf.peek(slot)
		if !ok {
			sw.next(1)[0] = 0
			continue
		}
		b := sw.next(1 + msize)
		b[0] = 1
		mc.Encode(b[1:], m)
	}
	if err := sw.close(); err != nil {
		return err
	}

	// Bypass frontier: the list, or a dense frontier's slots (those with
	// mail) in slot order.
	if e.dense {
		sw.open(uint64(occupied) * 4)
		for slot := 0; slot < n; slot++ {
			if e.hasMail(slot) {
				binary.LittleEndian.PutUint32(sw.next(4), uint32(slot))
			}
		}
	} else {
		sw.open(uint64(len(e.frontier)) * 4)
		for _, slot := range e.frontier {
			binary.LittleEndian.PutUint32(sw.next(4), uint32(slot))
		}
	}
	if err := sw.close(); err != nil {
		return err
	}

	// Aggregators: programs whose control flow depends on Aggregated
	// values (e.g. PageRankConverged) resume with the exact barrier state
	// instead of the operator identity.
	sw.open(uint64(aggLen))
	for i, a := range aggs {
		b := sw.next(1 + len(a.Name) + 1 + 8)
		b[0] = byte(len(a.Name))
		copy(b[1:], a.Name)
		b[1+len(a.Name)] = byte(a.Op)
		binary.LittleEndian.PutUint64(b[2+len(a.Name):], math.Float64bits(e.agg.current[i]))
	}
	if err := sw.close(); err != nil {
		return err
	}

	bw.Write(checkpointFooter[:])
	return bw.Flush()
}

// Restore rebuilds an engine from a checkpoint (format v2, "IPC2",
// CRC-verified) taken with the same graph, configuration and program,
// ready for Run to continue from the saved barrier. Run's Report then
// covers only the resumed supersteps, with Report.FirstSuperstep
// carrying the absolute superstep base so the resumed Steps indices and
// observer events continue the original run's numbering.
//
// The checkpoint's aggregators must match the program's declarations —
// the same names, each with the same operator, none listed twice — and
// each resumes from its checkpointed value instead of the operator
// identity. Any mismatch fails here, naming the aggregator.
func Restore[V, M any](r io.Reader, g *graph.Graph, cfg Config, prog Program[V, M], vc Codec[V], mc Codec[M]) (*Engine[V, M], error) {
	e, err := New(g, cfg, prog)
	if err != nil {
		return nil, err
	}
	return restoreV2(e, bufio.NewReaderSize(r, 1<<16), vc, mc)
}

// restoreFrontier validates and installs a restored bypass frontier,
// after the mailboxes: only on an engine configured with selection
// bypass, every slot in range, no duplicates, and exactly the slots with
// mail — a listed slot without mail would run for nothing, mail on an
// unlisted one would never be read. Past listCap entries it is dense,
// as gatherFrontier would have left it.
func (e *Engine[V, M]) restoreFrontier(frontier []int32) error {
	if !e.cfg.SelectionBypass {
		if len(frontier) > 0 {
			return errors.New("core: checkpoint carries a frontier but the engine has no selection bypass")
		}
		return nil
	}
	listed := make([]uint64, occupancyWords(e.g.N()))
	for _, slot := range frontier {
		if slot < 0 || int(slot) >= e.g.N() {
			return fmt.Errorf("core: checkpoint frontier entry %d out of range (slots %d)", slot, e.g.N())
		}
		if hasBit(listed, int(slot)) {
			return fmt.Errorf("core: checkpoint frontier lists slot %d twice", slot)
		}
		listed[slot>>6] |= 1 << (slot & 63)
		if !e.hasMail(int(slot)) {
			return fmt.Errorf("core: checkpoint frontier lists slot %d, which has no mail", slot)
		}
	}
	for slot := 0; slot < e.g.N(); slot++ {
		if e.hasMail(slot) && !hasBit(listed, slot) {
			return fmt.Errorf("core: checkpoint has mail for slot %d, which its frontier does not list", slot)
		}
	}
	if e.dense = len(frontier) > e.listCap; !e.dense {
		e.frontier = frontier
	}
	return nil
}

// sectionReader reads one v2 section: the declared length (validated
// against a caller-supplied cap derived from trusted engine state), the
// payload streamed through a CRC32C, and the stored checksum.
type sectionReader struct {
	br  *bufio.Reader
	crc uint32
	len uint64 // declared payload length
	rd  uint64 // payload bytes consumed so far
}

func openSection(br *bufio.Reader, name string, min, max uint64) (*sectionReader, error) {
	var lbuf [8]byte
	if _, err := io.ReadFull(br, lbuf[:]); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s section: %w", name, err)
	}
	n := binary.LittleEndian.Uint64(lbuf[:])
	if n < min || n > max {
		return nil, fmt.Errorf("core: checkpoint %s section length %d outside [%d, %d] (corrupt or hostile)", name, n, min, max)
	}
	return &sectionReader{br: br, len: n}, nil
}

// Read fills p from the section payload, failing if the declared length
// would be exceeded.
func (s *sectionReader) Read(p []byte) error {
	if s.rd+uint64(len(p)) > s.len {
		return fmt.Errorf("core: section payload shorter than its contents need")
	}
	if _, err := io.ReadFull(s.br, p); err != nil {
		return err
	}
	s.crc = crc32.Update(s.crc, crcTable, p)
	s.rd += uint64(len(p))
	return nil
}

func (s *sectionReader) ReadByte() (byte, error) {
	var b [1]byte
	if err := s.Read(b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// close verifies that the payload was fully consumed and the checksum
// matches.
func (s *sectionReader) close(name string) error {
	if s.rd != s.len {
		return fmt.Errorf("core: checkpoint %s section declares %d bytes but its contents use %d", name, s.len, s.rd)
	}
	var cbuf [4]byte
	if _, err := io.ReadFull(s.br, cbuf[:]); err != nil {
		return fmt.Errorf("core: checkpoint %s checksum: %w", name, err)
	}
	if want := binary.LittleEndian.Uint32(cbuf[:]); want != s.crc {
		return fmt.Errorf("core: checkpoint %s section checksum mismatch (stored %08x, computed %08x)", name, want, s.crc)
	}
	return nil
}

// ErrShardedCheckpoint is the error (wrapped) with which Restore and
// VerifyCheckpoint refuse a checkpoint written by a multi-shard engine
// (Config.Shards ≥ 2): sharded execution was removed, and such a file's
// per-shard section layout is no longer read.
var ErrShardedCheckpoint = errors.New("core: checkpoint was written by a multi-shard engine (Config.Shards), a feature that has been removed")

// readCheckpointHeader reads and validates what every v2 stream starts
// with — magic, the 32-byte header and its checksum — before any section
// is parsed. Restore and VerifyCheckpoint share it, so a stream one
// rejects here the other rejects with the same error.
func readCheckpointHeader(br *bufio.Reader) (hdr [32]byte, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return hdr, fmt.Errorf("core: checkpoint header: %w", err)
	}
	if err := checkMagic(magic); err != nil {
		return hdr, err
	}
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return hdr, fmt.Errorf("core: checkpoint header: %w", err)
	}
	var cbuf [4]byte
	if _, err := io.ReadFull(br, cbuf[:]); err != nil {
		return hdr, fmt.Errorf("core: checkpoint header checksum: %w", err)
	}
	if want := binary.LittleEndian.Uint32(cbuf[:]); want != crc32.Checksum(hdr[:], crcTable) {
		return hdr, fmt.Errorf("core: checkpoint header checksum mismatch (stored %08x)", want)
	}
	if superstep := binary.LittleEndian.Uint64(hdr[0:]); superstep > maxCheckpointSuperstep {
		return hdr, fmt.Errorf("core: checkpoint superstep %d is implausible (corrupt header)", superstep)
	}
	// hdr[28:32] was the shard count: 0 is the only layout ever written
	// for one shard, 1 was never written, ≥ 2 is a multi-shard file.
	switch shards := binary.LittleEndian.Uint32(hdr[28:]); {
	case shards == 1:
		return hdr, errors.New("core: checkpoint shard count 1 is invalid (corrupt header)")
	case shards >= 2:
		return hdr, fmt.Errorf("%w: header declares %d shards; re-run from the start", ErrShardedCheckpoint, shards)
	}
	return hdr, nil
}

// readState reads the values/activity/mailbox section triplet, in slot
// order: values and activity flags of exact length, the mailbox section
// between "all empty" and "all occupied".
func readState[V, M any](e *Engine[V, M], br *bufio.Reader, vc Codec[V], mc Codec[M]) error {
	n, vsize, msize := uint64(e.g.N()), uint64(vc.Size()), uint64(mc.Size())

	sec, err := openSection(br, "values", n*vsize, n*vsize)
	if err != nil {
		return err
	}
	vbuf := make([]byte, vsize)
	for slot := range e.values {
		if err := sec.Read(vbuf); err != nil {
			return fmt.Errorf("core: checkpoint values: %w", err)
		}
		e.values[slot] = vc.Decode(vbuf)
	}
	if err := sec.close("values"); err != nil {
		return err
	}

	if sec, err = openSection(br, "activity", n, n); err != nil {
		return err
	}
	// One byte per slot, set as the slot's activity bit. Under selection
	// bypass, which keeps no activity, every flag must be 0: no barrier it
	// checkpoints leaves a vertex active.
	active := make([]uint8, n)
	if err := sec.Read(active); err != nil {
		return fmt.Errorf("core: checkpoint activity: %w", err)
	}
	if err := sec.close("activity"); err != nil {
		return err
	}
	for slot, a := range active {
		switch {
		case a > 1:
			return fmt.Errorf("core: checkpoint activity flag %d at slot %d (corrupt)", a, slot)
		case a == 1 && e.active == nil:
			return fmt.Errorf("core: checkpoint marks slot %d active, which no selection-bypass barrier leaves", slot)
		case a == 1:
			e.active[slot>>6] |= 1 << (slot & 63)
		}
	}

	if sec, err = openSection(br, "mailbox", n, n*(1+msize)); err != nil {
		return err
	}
	mbuf := make([]byte, msize)
	for slot := 0; slot < e.g.N(); slot++ {
		flag, err := sec.ReadByte()
		if err != nil {
			return fmt.Errorf("core: checkpoint mailboxes: %w", err)
		}
		switch flag {
		case 0:
		case 1:
			if err := sec.Read(mbuf); err != nil {
				return fmt.Errorf("core: checkpoint mailboxes: %w", err)
			}
			e.buf.restoreCurrent(slot, mc.Decode(mbuf))
		default:
			return fmt.Errorf("core: checkpoint mailbox flag %d at slot %d (corrupt)", flag, slot)
		}
	}
	return sec.close("mailbox")
}

func restoreV2[V, M any](e *Engine[V, M], br *bufio.Reader, vc Codec[V], mc Codec[M]) (*Engine[V, M], error) {
	hdr, err := readCheckpointHeader(br)
	if err != nil {
		return nil, err
	}
	// The header's superstep counter is absolute, and becomes the resumed
	// run's base: observer events and the Report's Steps indices continue
	// the original numbering (Report.FirstSuperstep), and a checkpoint of
	// a resumed run chains correctly through further resumes.
	e.superstep = int(binary.LittleEndian.Uint64(hdr[0:]))
	e.firstSuperstep = e.superstep
	slots := binary.LittleEndian.Uint64(hdr[8:])
	if slots != uint64(e.g.N()) {
		return nil, fmt.Errorf("core: checkpoint has %d slots, engine has %d (graph mismatch)", slots, e.g.N())
	}
	vsize := uint64(vc.Size())
	msize := uint64(mc.Size())
	if got := binary.LittleEndian.Uint32(hdr[16:]); uint64(got) != vsize {
		return nil, fmt.Errorf("core: checkpoint value size %d, codec expects %d", got, vsize)
	}
	if got := binary.LittleEndian.Uint32(hdr[20:]); uint64(got) != msize {
		return nil, fmt.Errorf("core: checkpoint message size %d, codec expects %d", got, msize)
	}
	naggs := binary.LittleEndian.Uint32(hdr[24:])
	if naggs > maxCheckpointAggs {
		return nil, fmt.Errorf("core: checkpoint declares %d aggregators (limit %d)", naggs, maxCheckpointAggs)
	}
	if err := readState(e, br, vc, mc); err != nil {
		return nil, err
	}

	// Frontier: at most one entry per slot.
	sec, err := openSection(br, "frontier", 0, uint64(e.g.N())*4)
	if err != nil {
		return nil, err
	}
	if sec.len%4 != 0 {
		return nil, fmt.Errorf("core: checkpoint frontier section length %d is not a multiple of 4", sec.len)
	}
	frontier := make([]int32, 0, sec.len/4)
	var sbuf [4]byte
	for i := uint64(0); i < sec.len/4; i++ {
		if err := sec.Read(sbuf[:]); err != nil {
			return nil, fmt.Errorf("core: checkpoint frontier: %w", err)
		}
		frontier = append(frontier, int32(binary.LittleEndian.Uint32(sbuf[:])))
	}
	if err := sec.close("frontier"); err != nil {
		return nil, err
	}
	if err := e.restoreFrontier(frontier); err != nil {
		return nil, err
	}

	// Aggregators: matched against the program's declarations and
	// seeded directly, so programs whose control flow reads Aggregated
	// (e.g. PageRankConverged's delta test) resume where they stopped.
	maxAggBytes := uint64(naggs) * (1 + maxAggNameLen + 1 + 8)
	if sec, err = openSection(br, "aggregators", 0, maxAggBytes); err != nil {
		return nil, err
	}
	seen := make([]bool, len(e.agg.decl))
	for i := uint32(0); i < naggs; i++ {
		nameLen, err := sec.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint aggregators: %w", err)
		}
		nbuf := make([]byte, nameLen)
		if err := sec.Read(nbuf); err != nil {
			return nil, fmt.Errorf("core: checkpoint aggregators: %w", err)
		}
		opByte, err := sec.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint aggregators: %w", err)
		}
		var fbuf [8]byte
		if err := sec.Read(fbuf[:]); err != nil {
			return nil, fmt.Errorf("core: checkpoint aggregators: %w", err)
		}
		idx, ok := e.agg.names[string(nbuf)]
		switch {
		case !ok:
			return nil, fmt.Errorf("core: checkpoint carries aggregator %q the program does not declare", nbuf)
		case seen[idx]:
			return nil, fmt.Errorf("core: checkpoint lists aggregator %q twice", nbuf)
		case AggOp(opByte) != e.agg.decl[idx].Op:
			return nil, fmt.Errorf("core: aggregator %q declared with operator %d but checkpointed with %d", nbuf, e.agg.decl[idx].Op, opByte)
		}
		seen[idx] = true
		e.agg.current[idx] = math.Float64frombits(binary.LittleEndian.Uint64(fbuf[:]))
	}
	for idx, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("core: program declares aggregator %q the checkpoint lacks", e.agg.decl[idx].Name)
		}
	}
	if err := sec.close("aggregators"); err != nil {
		return nil, err
	}

	var footer [4]byte
	if _, err := io.ReadFull(br, footer[:]); err != nil {
		return nil, fmt.Errorf("core: checkpoint footer: %w (truncated checkpoint)", err)
	}
	if footer != checkpointFooter {
		return nil, fmt.Errorf("core: bad checkpoint footer %q (truncated or corrupt)", footer)
	}
	return e, nil
}

// maybeCheckpoint is called by Run at each barrier, after the superstep
// counter has advanced: the saved state is exactly "ready to execute
// superstep e.superstep". When the sink's writer implements
// CheckpointCommitter the write is transactional: Commit publishes a
// fully-written checkpoint, Abort discards a failed one, so a crash (or
// an injected fault) mid-write can never leave a half checkpoint where a
// recovery supervisor would find it.
func (e *Engine[V, M]) maybeCheckpoint() error {
	cp := e.checkpoint
	if cp == nil || e.superstep%cp.Every != 0 {
		return nil
	}
	w, err := cp.Sink(e.superstep)
	if err != nil {
		return fmt.Errorf("core: checkpoint sink: %w", err)
	}
	werr := e.writeCheckpoint(w, cp.VCodec, cp.MCodec)
	if c, ok := w.(CheckpointCommitter); ok {
		if werr != nil {
			_ = c.Abort()
			return fmt.Errorf("core: checkpoint write: %w", werr)
		}
		if err := c.Commit(); err != nil {
			return fmt.Errorf("core: checkpoint commit: %w", err)
		}
		return nil
	}
	if werr != nil {
		return fmt.Errorf("core: checkpoint write: %w", werr)
	}
	return nil
}
