package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"testing"

	"ipregel/internal/graph"
)

// test codec for uint32 (mirrors pregelplus.Uint32Codec without the
// import cycle a test would otherwise not have anyway).
type u32Codec struct{}

func (u32Codec) Size() int                 { return 4 }
func (u32Codec) Encode(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func (u32Codec) Decode(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }

// writeCheckpointV1 writes the legacy format (no integrity data, no
// aggregator section) for the v1 fuzz seeds and the
// rejection test; the engine itself writes and reads only v2.
func (e *Engine[V, M]) writeCheckpointV1(w io.Writer, vc Codec[V], mc Codec[M]) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(checkpointMagicV1[:])
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(e.superstep))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(e.g.N()))
	bw.Write(hdr[:])
	vbuf := make([]byte, vc.Size())
	for _, v := range e.values {
		vc.Encode(vbuf, v)
		bw.Write(vbuf)
	}
	bw.Write(e.activityBytes())
	mbuf := make([]byte, mc.Size())
	for slot := 0; slot < e.g.N(); slot++ {
		m, ok := e.buf.peek(slot)
		if !ok {
			bw.WriteByte(0)
			continue
		}
		bw.WriteByte(1)
		mc.Encode(mbuf, m)
		bw.Write(mbuf)
	}
	var flen [8]byte
	binary.LittleEndian.PutUint64(flen[:], uint64(len(e.frontier)))
	bw.Write(flen[:])
	for _, slot := range e.frontier {
		var sbuf [4]byte
		binary.LittleEndian.PutUint32(sbuf[:], uint32(slot))
		bw.Write(sbuf[:])
	}
	return bw.Flush() // bufio keeps the first write error sticky
}

// activityBytes is the activity as the checkpoint stores it, one byte
// per slot: 1 for an active slot, 0 otherwise (always 0 under bypass).
func (e *Engine[V, M]) activityBytes() []uint8 {
	active := make([]uint8, e.g.N())
	for w, word := range e.active {
		for ; word != 0; word &= word - 1 {
			active[w<<6+bits.TrailingZeros64(word)] = 1
		}
	}
	return active
}

// ssspProg is the Fig. 5 program, used here because it has non-trivial
// in-flight state at every barrier (values, mailboxes, frontier).
func ssspProg(source graph.VertexID) Program[uint32, uint32] {
	const inf = ^uint32(0)
	return Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) {
			if new < *old {
				*old = new
			}
		},
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			if ctx.IsFirstSuperstep() {
				*v.Value() = inf
			}
			ref := uint32(inf)
			if v.ID() == source {
				ref = 0
			}
			var m uint32
			for ctx.NextMessage(v, &m) {
				if m < ref {
					ref = m
				}
			}
			if ref < *v.Value() {
				*v.Value() = ref
				ctx.Broadcast(v, ref+1)
			}
			ctx.VoteToHalt(v)
		},
	}
}

func gridForCheckpoint(t testing.TB) *graph.Graph {
	t.Helper()
	var b graph.Builder
	b.BuildInEdges()
	const rows, cols = 8, 8
	id := func(r, c int) graph.VertexID { return graph.VertexID(1 + r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
				b.AddEdge(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
				b.AddEdge(id(r+1, c), id(r, c))
			}
		}
	}
	return b.MustBuild()
}

func TestCheckpointRestoreContinuesIdentically(t *testing.T) {
	g := gridForCheckpoint(t)
	for _, cfg := range AllVersions() {
		cfg := cfg
		cfg.Threads = 2
		// Ground truth: uninterrupted run.
		ref, refRep, err := Run(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatalf("%s: %v", cfg.VersionName(), err)
		}

		// Run with checkpoints every 3 supersteps; keep the last two.
		var dumps []*bytes.Buffer
		var steps []int
		e, err := New(g, cfg, ssspProg(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
			Every: 3,
			Sink: func(s int) (io.Writer, error) {
				buf := &bytes.Buffer{}
				dumps = append(dumps, buf)
				steps = append(steps, s)
				return buf, nil
			},
			VCodec: u32Codec{},
			MCodec: u32Codec{},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if len(dumps) == 0 {
			t.Fatalf("%s: no checkpoints taken", cfg.VersionName())
		}

		for di, dump := range dumps {
			restored, err := Restore(bytes.NewReader(dump.Bytes()), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
			if err != nil {
				t.Fatalf("%s: restore #%d: %v", cfg.VersionName(), di, err)
			}
			rep, err := restored.Run()
			if err != nil {
				t.Fatalf("%s: resumed run #%d: %v", cfg.VersionName(), di, err)
			}
			// Supersteps is the absolute counter; Steps covers only the
			// resumed portion.
			if rep.Supersteps != refRep.Supersteps {
				t.Fatalf("%s: resumed run ended at superstep %d, reference at %d", cfg.VersionName(), rep.Supersteps, refRep.Supersteps)
			}
			if wantResumed := refRep.Supersteps - steps[di]; len(rep.Steps) != wantResumed {
				t.Fatalf("%s: resumed %d supersteps from barrier %d, want %d", cfg.VersionName(), len(rep.Steps), steps[di], wantResumed)
			}
			got := restored.ValuesDense()
			want := ref.ValuesDense()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: restore #%d: dist[%d] = %d, want %d", cfg.VersionName(), di, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCheckpointerValidation(t *testing.T) {
	g := gridForCheckpoint(t)
	e, err := New(g, Config{}, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{}); err == nil {
		t.Fatal("empty checkpointer accepted")
	}
	ok := Checkpointer[uint32, uint32]{Every: 1, Sink: func(int) (io.Writer, error) { return io.Discard, nil }, VCodec: u32Codec{}, MCodec: u32Codec{}}
	if err := e.SetCheckpointer(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpointer(ok); err == nil {
		t.Fatal("post-Run checkpointer accepted")
	}
}

func TestRestoreErrors(t *testing.T) {
	g := gridForCheckpoint(t)
	prog := ssspProg(1)
	// Garbage and truncation.
	if _, err := Restore(bytes.NewReader([]byte("nope")), g, Config{}, prog, u32Codec{}, u32Codec{}); err == nil {
		t.Fatal("garbage accepted")
	}
	// Take a real checkpoint, then corrupt it.
	var dump bytes.Buffer
	e, _ := New(g, Config{}, prog)
	if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
		Every:  2,
		Sink:   func(int) (io.Writer, error) { return &dump, nil },
		VCodec: u32Codec{}, MCodec: u32Codec{},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	data := dump.Bytes()
	// Multiple checkpoints are concatenated in dump; take the first by
	// restoring from the full stream (reader stops at the first record).
	if _, err := Restore(bytes.NewReader(data[:20]), g, Config{}, prog, u32Codec{}, u32Codec{}); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	// Slot-count mismatch: restore against a different graph.
	var small graph.Builder
	small.AddEdge(1, 2)
	sg := small.MustBuild()
	if _, err := Restore(bytes.NewReader(data), sg, Config{}, prog, u32Codec{}, u32Codec{}); err == nil {
		t.Fatal("graph mismatch accepted")
	}
}

// TestRestoreRejectsDesolateLayout: engines with desolate addressing,
// since removed, allocated one dead slot below a base-1 graph's first
// vertex, so their checkpoints of the 64-vertex grid declare 65 slots and
// carry 65 entries in every per-slot section. Such a record is otherwise
// well formed (VerifyCheckpoint accepts it); Restore refuses it with the
// slot-count error before reading a section.
func TestRestoreRejectsDesolateLayout(t *testing.T) {
	g := gridForCheckpoint(t)
	slots := uint64(g.N() + 1)
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], 2) // superstep
	binary.LittleEndian.PutUint64(hdr[8:], slots)
	binary.LittleEndian.PutUint32(hdr[16:], 4) // value size
	binary.LittleEndian.PutUint32(hdr[20:], 4) // message size
	rec := append(checkpointMagicV2[:], hdr[:]...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(hdr[:], crcTable))
	// values, activity, mailboxes (all empty), frontier, aggregators
	for _, body := range [][]byte{make([]byte, slots*4), make([]byte, slots), make([]byte, slots), nil, nil} {
		rec = binary.LittleEndian.AppendUint64(rec, uint64(len(body)))
		rec = append(rec, body...)
		rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(body, crcTable))
	}
	rec = append(rec, checkpointFooter[:]...)
	if _, err := VerifyCheckpoint(bytes.NewReader(rec)); err != nil {
		t.Fatalf("VerifyCheckpoint: %v, want the hand-built record accepted", err)
	}
	_, err := Restore(bytes.NewReader(rec), g, Config{}, ssspProg(1), u32Codec{}, u32Codec{})
	want := fmt.Sprintf("core: checkpoint has %d slots, engine has %d (graph mismatch)", slots, g.N())
	if err == nil || err.Error() != want {
		t.Fatalf("Restore = %v, want %q", err, want)
	}
}

func TestCheckpointFrontierRequiresBypass(t *testing.T) {
	g := gridForCheckpoint(t)
	cfg := Config{Combiner: CombinerSpin, SelectionBypass: true}
	var dump bytes.Buffer
	e, err := New(g, cfg, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	wrote := false
	if err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
		Every: 2,
		Sink: func(int) (io.Writer, error) {
			if wrote {
				return io.Discard, nil
			}
			wrote = true
			return &dump, nil
		},
		VCodec: u32Codec{}, MCodec: u32Codec{},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Restoring a bypass checkpoint (with a non-empty frontier) into a
	// non-bypass engine must fail loudly.
	if _, err := Restore(bytes.NewReader(dump.Bytes()), g, Config{Combiner: CombinerSpin}, ssspProg(1), u32Codec{}, u32Codec{}); err == nil {
		t.Fatal("bypass checkpoint accepted by scan engine")
	}
}
