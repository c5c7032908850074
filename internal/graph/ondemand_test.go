package graph

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// outOnly returns the test matrix's graphs without in-edges, each flat and
// compressed: the receivers WithInEdgesOnDemand is built for.
func outOnly(t *testing.T) map[string]*Graph {
	t.Helper()
	out := map[string]*Graph{}
	for name, g := range testGraphs(t) {
		g = g.StripInEdges()
		cg, err := g.Compress()
		if err != nil {
			t.Fatal(err)
		}
		out[name+"/flat"], out[name+"/compressed"] = g, cg
	}
	return out
}

// adjacency lists what the graph stores through the backend-neutral
// accessors: out-degrees always, out-lists unless stripped, in-lists when
// it serves them, and the weights.
func adjacency(g *Graph) (deg []int, out, in [][]VertexID, w []uint32) {
	var nb NeighborBuf
	for i := 0; i < g.N(); i++ {
		deg = append(deg, g.OutDegree(i))
		if g.HasOutAdjacency() {
			out = append(out, append([]VertexID{}, g.OutNeighborsWith(&nb, i)...))
		}
		if g.HasInEdges() {
			in = append(in, append([]VertexID{}, g.InNeighborsWith(&nb, i)...))
		}
	}
	return deg, out, in, g.WeightData()
}

func requireSameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || got.Base() != want.Base() || got.IsCompressed() != want.IsCompressed() {
		t.Fatalf("%s: got N=%d M=%d base=%d compressed=%v, want N=%d M=%d base=%d compressed=%v", what,
			got.N(), got.M(), got.Base(), got.IsCompressed(), want.N(), want.M(), want.Base(), want.IsCompressed())
	}
	gDeg, gOut, gIn, gW := adjacency(got)
	wDeg, wOut, wIn, wW := adjacency(want)
	if !reflect.DeepEqual(gDeg, wDeg) || !reflect.DeepEqual(gOut, wOut) || !reflect.DeepEqual(gIn, wIn) || !reflect.DeepEqual(gW, wW) {
		t.Fatalf("%s: degrees, adjacency or weights differ", what)
	}
	// (The zero-value Graph does not validate, deferred or not.)
	if gErr, wErr := got.Validate(), want.Validate(); (gErr == nil) != (wErr == nil) {
		t.Fatalf("%s: Validate says %v, for the eager graph %v", what, gErr, wErr)
	}
}

// TestInEdgesOnDemandConcurrentFirstUse: sixteen goroutines touching the
// in side of a deferred graph for the first time at once all read the
// lists eager WithInEdges builds, from one shared build, while another
// goroutine polls the readers that must not force it; MemoryBytes moves
// from the out-only figure to the eager one exactly once.
func TestInEdgesOnDemandConcurrentFirstUse(t *testing.T) {
	for name, g := range outOnly(t) {
		t.Run(name, func(t *testing.T) {
			eager := g.WithInEdges()
			_, _, want, _ := adjacency(eager)
			d := g.WithInEdgesOnDemand()
			if !d.HasInEdges() || d.InEdgesResident() {
				t.Fatalf("fresh deferral: HasInEdges=%v InEdgesResident=%v, want true/false", d.HasInEdges(), d.InEdgesResident())
			}
			if d.MemoryBytes() != g.MemoryBytes() {
				t.Fatalf("MemoryBytes %d before any in-side read, want the out-only %d", d.MemoryBytes(), g.MemoryBytes())
			}
			if d.WithInEdgesOnDemand() != d || eager.WithInEdgesOnDemand() != eager {
				t.Fatal("WithInEdgesOnDemand on a graph that already serves in-edges must return the receiver")
			}

			stop := make(chan struct{})
			var poller sync.WaitGroup
			poller.Add(1)
			go func() {
				defer poller.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if mb := d.MemoryBytes(); mb != g.MemoryBytes() && mb != eager.MemoryBytes() {
						t.Errorf("MemoryBytes %d is neither the out-only %d nor the eager %d", mb, g.MemoryBytes(), eager.MemoryBytes())
						return
					}
					if err := d.Validate(); (err == nil) != (g.Validate() == nil) {
						t.Errorf("Validate under a concurrent first use: %v", err)
						return
					}
					if d.IsCompressed() != g.IsCompressed() || !d.HasInEdges() {
						t.Error("IsCompressed/HasInEdges changed under a concurrent first use")
						return
					}
					_ = ComputeStats("poll", d)
				}
			}()

			first := make([]*Graph, 16)
			var readers sync.WaitGroup
			for r := range first {
				readers.Add(1)
				go func() {
					defer readers.Done()
					var nb NeighborBuf
					for i := 0; i < d.N(); i++ {
						if got := d.InNeighborsWith(&nb, i); !equalIDs(got, want[i]) || d.InDegree(i) != len(want[i]) {
							t.Errorf("reader %d: in-neighbours of %d = %v (degree %d), want %v", r, i, got, d.InDegree(i), want[i])
							return
						}
					}
					first[r] = d.in()
				}()
			}
			readers.Wait()
			close(stop)
			poller.Wait()
			for r, b := range first {
				if b != first[0] {
					t.Fatalf("reader %d saw a different build than reader 0", r)
				}
			}
			if !d.InEdgesResident() || d.MemoryBytes() != eager.MemoryBytes() {
				t.Fatalf("after first use: InEdgesResident=%v MemoryBytes=%d, want true and the eager %d", d.InEdgesResident(), d.MemoryBytes(), eager.MemoryBytes())
			}
			if d.WithInEdges() != d {
				t.Fatal("WithInEdges on a deferred graph must build and return the receiver")
			}
			requireSameGraph(t, "deferred vs eager", d, eager)
		})
	}
}

// TestInEdgesOnDemandDerivations: every operation that derives a graph
// from another gives the same result from a deferred receiver as from an
// eager one, forces the receiver's build only if it reads the in side, and
// panics or errors in the same cases.
func TestInEdgesOnDemandDerivations(t *testing.T) {
	always := func(*Graph) bool { return true }
	never := func(*Graph) bool { return false }
	ops := []struct {
		name string
		// forces says whether the operation reads the receiver's in side.
		forces func(receiver *Graph) bool
		do     func(g *Graph) (*Graph, error)
	}{
		{"Transpose", func(g *Graph) bool { return !g.HasWeights() }, func(g *Graph) (*Graph, error) { return g.Transpose(), nil }},
		{"Compress", func(g *Graph) bool { return !g.IsCompressed() }, func(g *Graph) (*Graph, error) { return g.Compress() }},
		{"Decompress", (*Graph).IsCompressed, func(g *Graph) (*Graph, error) { return g.Decompress(), nil }},
		{"StripOutAdjacency", always, func(g *Graph) (*Graph, error) { return g.StripOutAdjacency() }},
		{"WithInEdges", always, func(g *Graph) (*Graph, error) { return g.WithInEdges(), nil }},
		{"StripInEdges", never, func(g *Graph) (*Graph, error) { return g.StripInEdges(), nil }},
		{"Symmetrize", never, func(g *Graph) (*Graph, error) { return g.Symmetrize(true), nil }},
	}
	// outcome runs op, folding a panic (the flat-only mutators on a
	// compressed receiver) into the error.
	outcome := func(do func(*Graph) (*Graph, error), g *Graph) (res *Graph, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return do(g)
	}
	for name, g := range outOnly(t) {
		for _, op := range ops {
			t.Run(name+"/"+op.name, func(t *testing.T) {
				d, eager := g.WithInEdgesOnDemand(), g.WithInEdges()
				got, gotErr := outcome(op.do, d)
				want, wantErr := outcome(op.do, eager)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("deferred receiver: %v; eager receiver: %v", gotErr, wantErr)
				}
				if gotErr != nil {
					return
				}
				if d.InEdgesResident() != op.forces(g) {
					t.Fatalf("receiver's in-edges resident after %s: %v, want %v", op.name, d.InEdgesResident(), op.forces(g))
				}
				requireSameGraph(t, op.name, got, want)
			})
		}
	}
}

// TestInEdgesOnDemandReportsWithoutBuilding: the readers that describe a
// graph answer as for the eager graph where the answer does not depend on
// residency, and leave a deferred in-adjacency unbuilt.
func TestInEdgesOnDemandReportsWithoutBuilding(t *testing.T) {
	for name, g := range outOnly(t) {
		t.Run(name, func(t *testing.T) {
			d, eager := g.WithInEdgesOnDemand(), g.WithInEdges()
			if got, want := ComputeStats("s", d), ComputeStats("s", eager); got != want {
				t.Fatalf("ComputeStats = %+v, want %+v", got, want)
			}
			if dErr, eErr := d.Validate(), eager.Validate(); (dErr == nil) != (eErr == nil) {
				t.Fatalf("Validate says %v, for the eager graph %v", dErr, eErr)
			}
			if d.IsCompressed() != eager.IsCompressed() || d.HasInEdges() != eager.HasInEdges() {
				t.Fatal("IsCompressed/HasInEdges differ from the eager graph")
			}
			if d.InEdgesResident() || d.MemoryBytes() != g.MemoryBytes() {
				t.Fatalf("reporting built the in-adjacency: resident=%v, MemoryBytes %d (out-only %d)", d.InEdgesResident(), d.MemoryBytes(), g.MemoryBytes())
			}
			if stripped := d.StripInEdges(); stripped.HasInEdges() {
				t.Fatal("StripInEdges kept the deferral")
			}
		})
	}
	// The slice accessors keep their panics: a deferred compressed graph
	// has no shared in-slice to hand out either.
	cg, err := tiny(t, nil).Compress()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != ErrCompressedAdjacency {
			t.Fatalf("InNeighbors on a deferred compressed graph: recovered %v, want ErrCompressedAdjacency", r)
		}
	}()
	cg.WithInEdgesOnDemand().InNeighbors(0)
}
