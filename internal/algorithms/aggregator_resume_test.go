package algorithms

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

// aggResumeGraph is a small strongly-connected ring with irregular
// chords: every vertex has out-degree ≥ 1 (no rank leaks to sinks), and
// the uneven degrees keep the rank distribution non-uniform, so the
// delta aggregator decays over many supersteps instead of hitting the
// fixed point immediately (a regular graph's PageRank is uniform from
// superstep one).
func aggResumeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	var b graph.Builder
	const n = 24
	for i := 1; i <= n; i++ {
		next := i%n + 1
		b.AddEdge(graph.VertexID(i), graph.VertexID(next))
		if i%3 == 0 {
			chord := (i+6)%n + 1
			b.AddEdge(graph.VertexID(i), graph.VertexID(chord))
		}
		if i%5 == 0 {
			b.AddEdge(graph.VertexID(i), 1)
		}
	}
	return b.MustBuild()
}

// TestPageRankConvergedResumesWithAggregatorState is the regression test
// for the checkpoint aggregator gap: v1 checkpoints dropped aggregator
// state, so a resumed PageRankConverged read the AggSum identity 0 for
// "delta" on its first resumed superstep and every vertex concluded —
// prematurely — that the run had converged. Checkpoint v2 persists the
// barrier's merged aggregator values, so a resumed run must now execute
// exactly the supersteps the uninterrupted run would have, and finish
// with exactly its ranks.
func TestPageRankConvergedResumesWithAggregatorState(t *testing.T) {
	g := aggResumeGraph(t)
	// Threads=1: float summation order is fixed, so resumed ranks must be
	// bit-identical, not merely close.
	cfg := core.Config{Combiner: core.CombinerSpin, Threads: 1}
	const tol = 1e-7

	wantRanks, refRep, err := PageRankConverged(g, cfg, tol)
	if err != nil {
		t.Fatal(err)
	}
	if refRep.Supersteps < 6 {
		t.Fatalf("reference run too short (%d supersteps) to test mid-run resume", refRep.Supersteps)
	}

	// Checkpoint every barrier; resume from each and demand the exact
	// reference outcome. Premature convergence would end the resumed run
	// at FirstSuperstep+1 with wrong ranks.
	var dumps [][]byte
	var barriers []int
	e, err := core.New(g, cfg, PageRankConvergedProgram(tol))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpointer(core.Checkpointer[float64, float64]{
		Every: 1,
		Sink: func(s int) (io.Writer, error) {
			dumps = append(dumps, nil)
			barriers = append(barriers, s)
			idx := len(dumps) - 1
			return sliceWriter{dst: &dumps[idx]}, nil
		},
		VCodec: pregelplus.Float64Codec{},
		MCodec: pregelplus.Float64Codec{},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	for di, dump := range dumps {
		restored, err := core.Restore(bytes.NewReader(dump), g, cfg, PageRankConvergedProgram(tol), pregelplus.Float64Codec{}, pregelplus.Float64Codec{})
		if err != nil {
			t.Fatalf("restore from barrier %d: %v", barriers[di], err)
		}
		rep, err := restored.Run()
		if err != nil {
			t.Fatalf("resume from barrier %d: %v", barriers[di], err)
		}
		if rep.Supersteps != refRep.Supersteps {
			t.Fatalf("resume from barrier %d ended at superstep %d, reference at %d (aggregator state lost?)", barriers[di], rep.Supersteps, refRep.Supersteps)
		}
		got := restored.ValuesDense()
		for i := range wantRanks {
			if got[i] != wantRanks[i] {
				t.Fatalf("resume from barrier %d: rank[%d] = %v, want exactly %v", barriers[di], i, got[i], wantRanks[i])
			}
		}
	}
}

// TestRestoreAggregatorMismatch pins the program/checkpoint aggregator
// match: a checkpoint's aggregators must be exactly the program's
// declarations, so a mismatch fails at Restore — naming the aggregator —
// instead of resuming from a wrong or identity value.
func TestRestoreAggregatorMismatch(t *testing.T) {
	g := aggResumeGraph(t)
	cfg := core.Config{Combiner: core.CombinerSpin, Threads: 1}
	const tol = 1e-7

	var dump []byte
	e, err := core.New(g, cfg, PageRankConvergedProgram(tol))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpointer(core.Checkpointer[float64, float64]{
		Every: 3,
		Sink: func(s int) (io.Writer, error) {
			if s != 3 {
				return io.Discard, nil
			}
			return sliceWriter{dst: &dump}, nil
		},
		VCodec: pregelplus.Float64Codec{},
		MCodec: pregelplus.Float64Codec{},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		ckpt []byte
		decl []core.Aggregator
		want string // the aggregator the error must name
	}{
		{"missing", dump, []core.Aggregator{{Name: "delta", Op: core.AggSum}, {Name: "spread", Op: core.AggMax}}, "spread"},
		{"extra", dump, nil, "delta"},
		{"wrong operator", dump, []core.Aggregator{{Name: "delta", Op: core.AggMin}}, "delta"},
		{"listed twice", listAggregatorTwice(t, dump), []core.Aggregator{{Name: "delta", Op: core.AggSum}}, "delta"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := PageRankConvergedProgram(tol)
			prog.Aggregators = tc.decl
			_, err := core.Restore(bytes.NewReader(tc.ckpt), g, cfg, prog, pregelplus.Float64Codec{}, pregelplus.Float64Codec{})
			if err == nil || !strings.Contains(err.Error(), `"`+tc.want+`"`) {
				t.Fatalf("Restore: err = %v, want a mismatch naming %q", err, tc.want)
			}
		})
	}
}

// listAggregatorTwice hand-edits a checkpoint whose only aggregator is
// "delta" so its aggregator section lists that entry twice, resealing
// the header and the section. The aggregator section is the last one:
// length (8 bytes), entries, CRC32C (4), then the 4-byte footer.
func listAggregatorTwice(t *testing.T, dump []byte) []byte {
	t.Helper()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	const entry = 1 + len("delta") + 1 + 8 // name length, name, operator, value
	start := len(dump) - 4 - 4 - entry - 8
	if got := binary.LittleEndian.Uint64(dump[start:]); got != uint64(entry) {
		t.Fatalf("aggregator section holds %d bytes, want one %d-byte entry", got, entry)
	}
	out := append([]byte(nil), dump[:start]...)
	hdr := out[4:36] // after the 4-byte magic
	binary.LittleEndian.PutUint32(hdr[24:], 2)
	binary.LittleEndian.PutUint32(out[36:], crc32.Checksum(hdr, castagnoli))
	one := dump[start+8 : start+8+entry]
	twice := append(append([]byte(nil), one...), one...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(twice)))
	out = append(out, twice...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(twice, castagnoli))
	return append(out, dump[len(dump)-4:]...)
}

type sliceWriter struct{ dst *[]byte }

func (w sliceWriter) Write(p []byte) (int, error) {
	*w.dst = append(*w.dst, p...)
	return len(p), nil
}
