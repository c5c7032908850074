package core

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"ipregel/internal/graph"
	"ipregel/internal/graphio"
)

// TestDirectionOnDemandInEdges: over a mapped graph opened with
// BuildInEdges — an in-adjacency derived on demand — the engine builds
// the in side exactly when a superstep pulls. A push run ends with the
// graph at its out-only heap; a pull run (built in New) and an adaptive
// run (built at its first pull superstep; a fresh adaptive run always has
// one, superstep 0's frontier being every edge) end at the eager figure;
// an adaptive run resumed past its last pull superstep never builds it.
// Values and Fingerprint match the flat run throughout.
func TestDirectionOnDemandInEdges(t *testing.T) {
	flat := gridForCheckpoint(t)
	compressed, err := flat.Compress()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.bin")
	if err := graphio.WriteFile(path, compressed); err != nil { // IPG3
		t.Fatal(err)
	}
	open := func() *graph.Graph {
		m, err := graphio.OpenMapped(path, graphio.Options{BuildInEdges: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m.Graph()
	}
	outOnly := open().MemoryBytes()
	withIn := open().WithInEdges().MemoryBytes()
	if outOnly >= withIn {
		t.Fatalf("out-only heap %d is not below the eager %d; the test could not tell them apart", outOnly, withIn)
	}

	base := Config{Combiner: CombinerSpin, Threads: 3, CheckInvariants: true}
	ref, refRep, err := Run(flat, base, ssspProg(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ValuesDense()

	saved := map[int]*bytes.Buffer{}
	for _, tc := range []struct {
		name      string
		dir       Direction
		wantBytes uint64
	}{
		{"push", DirectionPush, outOnly},
		{"pull", DirectionPull, withIn},
		{"adaptive", DirectionAdaptive, withIn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := open()
			cfg := base
			cfg.Direction = tc.dir
			e, err := New(g, cfg, ssspProg(1))
			if err != nil {
				t.Fatal(err)
			}
			if built := g.InEdgesResident(); built != (tc.dir == DirectionPull) {
				t.Fatalf("after New: in-edges resident = %v", built)
			}
			if tc.dir == DirectionAdaptive {
				err := e.SetCheckpointer(Checkpointer[uint32, uint32]{
					Every:  1,
					Sink:   func(step int) (io.Writer, error) { saved[step] = &bytes.Buffer{}; return saved[step], nil },
					VCodec: u32Codec{},
					MCodec: u32Codec{},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			rep, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e.ValuesDense(), want) || rep.Fingerprint() != refRep.Fingerprint() {
				t.Fatalf("values or Fingerprint differ from the flat push run\n got %s\nwant %s", rep.Fingerprint(), refRep.Fingerprint())
			}
			if got := g.MemoryBytes(); got != tc.wantBytes {
				t.Fatalf("graph heap after the run: %d bytes, want %d (out-only %d, with in-edges %d)", got, tc.wantBytes, outOnly, withIn)
			}
		})
	}

	// Resume the adaptive run from each of its barriers on a freshly
	// opened graph: the in side is built if and only if a remaining
	// superstep pulls.
	cfg := base
	cfg.Direction = DirectionAdaptive
	resumedPulling, resumedPushOnly := 0, 0
	for step, buf := range saved {
		g := open()
		restored, err := Restore(bytes.NewReader(buf.Bytes()), g, cfg, ssspProg(1), u32Codec{}, u32Codec{})
		if err != nil {
			t.Fatalf("restore at %d: %v", step, err)
		}
		rep, err := restored.Run()
		if err != nil {
			t.Fatalf("resumed run from %d: %v", step, err)
		}
		pulled := false
		for _, s := range rep.Steps {
			pulled = pulled || s.Direction == DirectionPull
		}
		wantBytes := outOnly
		if pulled {
			wantBytes = withIn
			resumedPulling++
		} else {
			resumedPushOnly++
		}
		if got := g.MemoryBytes(); got != wantBytes {
			t.Fatalf("resume from %d (pulled: %v): graph heap %d bytes, want %d", step, pulled, got, wantBytes)
		}
		if !reflect.DeepEqual(restored.ValuesDense(), want) {
			t.Fatalf("resume from %d: values differ from the flat run", step)
		}
	}
	if resumedPulling == 0 || resumedPushOnly == 0 {
		t.Fatalf("%d resumed runs pulled and %d never did; both are needed", resumedPulling, resumedPushOnly)
	}
}

// TestOnDemandInEdgesFirstReadByWorkers: a push run whose Compute reads
// Vertex.InDegree makes the engine's workers the concurrent first readers
// of the in side; they share one build and every vertex sees its true
// in-degree.
func TestOnDemandInEdgesFirstReadByWorkers(t *testing.T) {
	flat := hubGraph(500)
	g := flat.StripInEdges().WithInEdgesOnDemand()
	prog := Program[uint32, uint32]{
		Combine: func(old *uint32, new uint32) { *old += new },
		Compute: func(ctx *Context[uint32, uint32], v Vertex[uint32, uint32]) {
			*v.Value() = uint32(v.InDegree())
			ctx.VoteToHalt(v)
		},
	}
	e, _, err := Run(g, Config{Combiner: CombinerSpin, Threads: 4}, prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range e.ValuesDense() {
		if int(got) != flat.InDegree(i) {
			t.Fatalf("vertex %d read in-degree %d, want %d", i, got, flat.InDegree(i))
		}
	}
	if !g.InEdgesResident() {
		t.Fatal("reading InDegree left the in side unbuilt")
	}
}
