package graphio

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ipregel/internal/graph"
)

// mappedFixtures writes one random graph as IPG1, a weighted one as IPG2,
// and both compressed as IPG3, and returns the paths by format name.
func mappedFixtures(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	var b graph.Builder
	b.ForceN = 300
	b.SetBase(1)
	var wb graph.WeightedBuilder
	wb.ForceN(300)
	wb.SetBase(1)
	for i := 0; i < 2500; i++ {
		s, d := graph.VertexID(1+rng.Intn(300)), graph.VertexID(1+rng.Intn(300))
		b.AddEdge(s, d)
		wb.AddEdge(s, d, uint32(1+rng.Intn(1000)))
	}
	paths := map[string]string{}
	for name, g := range map[string]*graph.Graph{"IPG1": b.MustBuild(), "IPG2": wb.MustBuild()} {
		paths[name] = filepath.Join(dir, name+".bin")
		if err := WriteFile(paths[name], g); err != nil {
			t.Fatal(err)
		}
		cg, err := g.Compress()
		if err != nil {
			t.Fatal(err)
		}
		name3 := map[string]string{"IPG1": "IPG3", "IPG2": "IPG3-weighted"}[name]
		paths[name3] = filepath.Join(dir, name3+".bin")
		if err := WriteFile(paths[name3], cg); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func inLists(g *graph.Graph) [][]graph.VertexID {
	var nb graph.NeighborBuf
	out := make([][]graph.VertexID, g.N())
	for i := range out {
		out[i] = append([]graph.VertexID{}, g.InNeighborsWith(&nb, i)...)
	}
	return out
}

// TestOpenMappedDefersInEdges: opening with BuildInEdges costs the
// out-only heap until something reads the in side; sixteen goroutines
// doing so at once all see eager WithInEdges' lists while another polls
// the non-forcing readers, and the heap settles at the eager figure.
func TestOpenMappedDefersInEdges(t *testing.T) {
	for format, path := range mappedFixtures(t) {
		t.Run(format, func(t *testing.T) {
			plain, err := OpenMapped(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			outOnly := plain.Graph().MemoryBytes()
			eager := plain.Graph().WithInEdges()
			want := inLists(eager)

			m, err := OpenMapped(path, Options{BuildInEdges: true})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			g := m.Graph()
			if !g.HasInEdges() || g.InEdgesResident() || g.MemoryBytes() != outOnly {
				t.Fatalf("after open: HasInEdges=%v InEdgesResident=%v MemoryBytes=%d; want true, false, the out-only %d",
					g.HasInEdges(), g.InEdgesResident(), g.MemoryBytes(), outOnly)
			}
			if g.HasWeights() != plain.Graph().HasWeights() {
				t.Fatal("the deferral dropped the weights")
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
					if mb := g.MemoryBytes(); mb != outOnly && mb != eager.MemoryBytes() {
						t.Errorf("MemoryBytes %d is neither the out-only %d nor the eager %d", mb, outOnly, eager.MemoryBytes())
						return
					}
					if err := g.Validate(); err != nil {
						t.Error(err)
						return
					}
					if g.IsCompressed() != eager.IsCompressed() || !g.HasInEdges() {
						t.Error("IsCompressed/HasInEdges changed under a concurrent first use")
						return
					}
				}
			}()
			var readers sync.WaitGroup
			for r := 0; r < 16; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					var nb graph.NeighborBuf
					for i := 0; i < g.N(); i++ {
						if got := g.InNeighborsWith(&nb, i); !reflect.DeepEqual(append([]graph.VertexID{}, got...), want[i]) || g.InDegree(i) != len(want[i]) {
							t.Errorf("reader %d: in-neighbours of %d = %v (degree %d), want %v", r, i, got, g.InDegree(i), want[i])
							return
						}
					}
				}()
			}
			readers.Wait()
			close(stop)
			poller.Wait()
			if !g.InEdgesResident() || g.MemoryBytes() != eager.MemoryBytes() {
				t.Fatalf("after first use: InEdgesResident=%v MemoryBytes=%d, want true and the eager %d", g.InEdgesResident(), g.MemoryBytes(), eager.MemoryBytes())
			}
		})
	}
}

// TestOpenMappedCloseFailsDeferredBuild: Close poisons the deferred
// in-edge build. Every in-side read that would derive the in-adjacency
// from the unmapped file panics with graph.ErrClosed and builds nothing,
// while a graph whose in-edges were built before Close keeps serving them
// from the heap.
func TestOpenMappedCloseFailsDeferredBuild(t *testing.T) {
	for format, path := range mappedFixtures(t) {
		t.Run(format, func(t *testing.T) {
			m, err := OpenMapped(path, Options{BuildInEdges: true})
			if err != nil {
				t.Fatal(err)
			}
			g := m.Graph()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			var nb graph.NeighborBuf
			for name, read := range map[string]func(){
				"InDegree":          func() { g.InDegree(0) },
				"InNeighborsWith":   func() { g.InNeighborsWith(&nb, 0) },
				"ForEachInNeighbor": func() { g.ForEachInNeighbor(0, func(graph.VertexID) {}) },
				"WithInEdges":       func() { g.WithInEdges() },
			} {
				func() {
					defer func() {
						if err, _ := recover().(error); !errors.Is(err, graph.ErrClosed) {
							t.Fatalf("%s after Close panicked with %v, want graph.ErrClosed", name, err)
						}
					}()
					read()
				}()
			}
			if g.InEdgesResident() {
				t.Fatal("an in-side read after Close built the in-adjacency")
			}

			built, err := OpenMapped(path, Options{BuildInEdges: true})
			if err != nil {
				t.Fatal(err)
			}
			bg := built.Graph()
			want := inLists(bg)
			if err := built.Close(); err != nil {
				t.Fatal(err)
			}
			if got := inLists(bg); !reflect.DeepEqual(got, want) {
				t.Fatal("in-edges built before Close changed after it")
			}
		})
	}
}

// TestIPG3ReadDefersInEdges: ReadFile on a binary file of any variant
// runs OpenMapped's parser over its own buffers and defers the in-edges
// the same way.
func TestIPG3ReadDefersInEdges(t *testing.T) {
	for format, path := range mappedFixtures(t) {
		t.Run(format, func(t *testing.T) {
			g, err := ReadFile(path, Options{BuildInEdges: true})
			if err != nil {
				t.Fatal(err)
			}
			if !g.HasInEdges() {
				t.Fatal("BuildInEdges ignored")
			}
			if g.InEdgesResident() {
				t.Fatal("in-edges built at load")
			}
			plain, err := ReadFile(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want := inLists(plain.WithInEdges()); !reflect.DeepEqual(inLists(g), want) {
				t.Fatal("in-neighbour lists differ from eager WithInEdges")
			}
			if !g.InEdgesResident() {
				t.Fatal("reading the in side left it unbuilt")
			}
		})
	}
}

// TestOpenMappedKeepWeights: every binary loader — Read on a plain
// reader, ReadFile on the file and on its gzip, OpenMapped — gives the
// adjacency and weights OpenMapped gives, whatever the options that keep
// the adjacency say: KeepWeights changes nothing (a weighted file's
// weights are kept whether or not it is set, an unweighted file gives an
// unweighted graph without an error). Every loader refuses the options
// that would rewrite the adjacency, a truncated file and a file with one
// trailing byte, and the decode path a big-endian host takes gives what
// the aliasing views give.
func TestOpenMappedKeepWeights(t *testing.T) {
	for format, path := range mappedFixtures(t) {
		t.Run(format, func(t *testing.T) {
			ref, err := OpenMapped(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			want := ref.Graph()
			if weighted := format == "IPG2" || format == "IPG3-weighted"; want.HasWeights() != weighted {
				t.Fatalf("OpenMapped: HasWeights = %v on an %s file", want.HasWeights(), format)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			files := 0
			file := func(b []byte, gz bool) string {
				files++
				p := filepath.Join(dir, fmt.Sprintf("%d.bin", files))
				if gz {
					p += ".gz"
					var buf bytes.Buffer
					zw := gzip.NewWriter(&buf)
					zw.Write(b)
					zw.Close()
					b = buf.Bytes()
				}
				if err := os.WriteFile(p, b, 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			}
			loaders := map[string]func([]byte, Options) (*graph.Graph, error){
				"Read": func(b []byte, opts Options) (*graph.Graph, error) {
					return Read(bytes.NewReader(b), FormatBinary, opts)
				},
				"ReadFile": func(b []byte, opts Options) (*graph.Graph, error) {
					return ReadFile(file(b, false), opts)
				},
				"ReadFile gzip": func(b []byte, opts Options) (*graph.Graph, error) {
					return ReadFile(file(b, true), opts)
				},
				"OpenMapped": func(b []byte, opts Options) (*graph.Graph, error) {
					m, err := OpenMapped(file(b, false), opts)
					if err != nil {
						return nil, err
					}
					t.Cleanup(func() { m.Close() })
					return m.Graph(), nil
				},
			}
			for name, load := range loaders {
				for _, opts := range []Options{{KeepWeights: true}, {KeepWeights: true, BuildInEdges: true}, {}} {
					g, err := load(raw, opts)
					if err != nil {
						t.Fatalf("%s(%+v): %v", name, opts, err)
					}
					assertSameAdjacency(t, want, g) // shape, neighbours and weights
				}
				for _, opts := range []Options{{Undirected: true}, {Dedup: true}} {
					if _, err := load(raw, opts); err == nil {
						t.Fatalf("%s(%+v) succeeded; it cannot rewrite a binary graph", name, opts)
					}
				}
				for what, bad := range map[string][]byte{
					"truncated":         raw[:len(raw)-1],
					"one trailing byte": append(raw[:len(raw):len(raw)], 0),
				} {
					if _, err := load(bad, Options{}); err == nil {
						t.Fatalf("%s accepted a %s file", name, what)
					}
				}
			}
			defer func(was bool) { bigEndian = was }(bigEndian)
			bigEndian = true
			for _, name := range []string{"Read", "OpenMapped"} {
				g, err := loaders[name](raw, Options{})
				if err != nil {
					t.Fatalf("%s decoding: %v", name, err)
				}
				assertSameAdjacency(t, want, g)
			}
		})
	}
}
