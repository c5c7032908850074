package core

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"ipregel/internal/gen"
	"ipregel/internal/pregelplus"
)

// errStopAtBarrier is what benchCheckpointEngine's sink returns to end
// the run at the barrier it checkpoints, leaving that barrier's state.
var errStopAtBarrier = errors.New("stop at the checkpoint barrier")

// benchCheckpointEngine runs rankProg on g until the barrier after
// superstep 8, where a PageRank job with CheckpointEvery 8 writes its
// checkpoint, and returns the engine holding that barrier's state: a
// value per vertex and the mail of every vertex with an in-neighbour.
func benchCheckpointEngine(b *testing.B, divisor int) *Engine[float64, float64] {
	g := gen.Wikipedia(gen.PresetParams{Divisor: divisor})
	e, err := New(g, Config{Threads: 1}, rankProg(10))
	if err != nil {
		b.Fatal(err)
	}
	if err := e.SetCheckpointer(Checkpointer[float64, float64]{
		Every:  8,
		Sink:   func(int) (io.Writer, error) { return nil, errStopAtBarrier },
		VCodec: pregelplus.Float64Codec{},
		MCodec: pregelplus.Float64Codec{},
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(); !errors.Is(err, errStopAtBarrier) {
		b.Fatalf("run did not stop at the checkpoint barrier: %v", err)
	}
	return e
}

// BenchmarkWriteCheckpoint is one v2 checkpoint write to io.Discard of a
// PageRank-shaped engine at barrier 8, on the Wikipedia stand-in at
// divisors 2048 (8 920 vertices) and 128 (142 726): ns and allocations
// per checkpoint. The file system's cost is not in it.
func BenchmarkWriteCheckpoint(b *testing.B) {
	for _, divisor := range []int{2048, 128} {
		e := benchCheckpointEngine(b, divisor)
		b.Run(fmt.Sprintf("V=%d", e.g.N()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.writeCheckpoint(io.Discard, pregelplus.Float64Codec{}, pregelplus.Float64Codec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
