package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ipregel/internal/gen"
	"ipregel/internal/graphio"
	"ipregel/internal/memmodel"
)

func init() {
	register(Experiment{
		ID:    "mem-backend",
		Title: "memory-efficiency tier: measured bytes/vertex per graph backend (flat CSR vs compressed blocks vs mmap)",
		Run:   runMemBackend,
	})
}

// backendRow is one backend's measured footprint, serialised into
// results/BENCH_membackend.json.
type backendRow struct {
	Backend string `json:"backend"`
	// HeapBytes is the settled heap the resident graph retains
	// (memmodel.MeasureRetained: post-GC growth, build scratch excluded).
	HeapBytes uint64 `json:"heap_bytes"`
	// MappedBytes is the file-backed mapping size (mmap backend only);
	// these pages are evictable and never counted against the heap.
	MappedBytes uint64 `json:"mapped_bytes"`
	// StructuralBytes is the graph's own accounting (Graph.MemoryBytes).
	StructuralBytes uint64  `json:"structural_bytes"`
	HeapPerVertex   float64 `json:"heap_bytes_per_vertex"`
}

type memBackendReport struct {
	Experiment string       `json:"experiment"`
	Graph      string       `json:"graph"`
	Divisor    int          `json:"divisor"`
	Vertices   int          `json:"vertices"`
	Edges      uint64       `json:"edges"`
	InEdges    bool         `json:"in_edges"`
	Backends   []backendRow `json:"backends"`
	// Analytic cross-check for the out-direction only: the flat CSR
	// model vs the compressed-block model at the measured stream length.
	AnalyticFlatCSR    uint64 `json:"analytic_flat_csr_bytes"`
	AnalyticCompressed uint64 `json:"analytic_compressed_csr_bytes"`
}

// runMemBackend measures the resident cost of the same graph under the
// three adjacency backends and prints the comparison as JSON (recorded
// as results/BENCH_membackend.json). The mmap rows are the headline: the
// heap holds only the derived in-direction — or, until something reads
// the in side, nothing — while the out-adjacency stays on file-backed
// evictable pages.
func runMemBackend(o *Options, w io.Writer) error {
	const graphName = "wiki"
	params := gen.PresetParams{Divisor: o.Divisor, BuildInEdges: true}
	build := func() (*memBackendReport, error) {
		g, err := gen.ByName(graphName, params)
		if err != nil {
			return nil, err
		}
		return &memBackendReport{
			Experiment: "mem-backend",
			Graph:      graphName,
			Divisor:    o.Divisor,
			Vertices:   g.N(),
			Edges:      g.M(),
			InEdges:    g.HasInEdges(),
		}, nil
	}
	rep, err := build()
	if err != nil {
		return err
	}

	// flat
	var structural uint64
	heap := memmodel.MeasureRetained(func() any {
		g, err2 := gen.ByName(graphName, params)
		if err2 != nil {
			err = err2
			return nil
		}
		structural = g.MemoryBytes()
		return g
	})
	if err != nil {
		return err
	}
	rep.Backends = append(rep.Backends, backendRow{
		Backend: "flat", HeapBytes: heap, StructuralBytes: structural,
		HeapPerVertex: memmodel.BytesPerVertex(heap, rep.Vertices),
	})

	// compressed
	heap = memmodel.MeasureRetained(func() any {
		g, err2 := gen.ByName(graphName, params)
		if err2 != nil {
			err = err2
			return nil
		}
		cg, err2 := g.Compress()
		if err2 != nil {
			err = err2
			return nil
		}
		structural = cg.MemoryBytes()
		return cg
	})
	if err != nil {
		return err
	}
	rep.Backends = append(rep.Backends, backendRow{
		Backend: "compressed", HeapBytes: heap, StructuralBytes: structural,
		HeapPerVertex: memmodel.BytesPerVertex(heap, rep.Vertices),
	})

	// analytic cross-check on the compressed out-direction
	{
		g, err := gen.ByName(graphName, params)
		if err != nil {
			return err
		}
		cg, err := g.Compress()
		if err != nil {
			return err
		}
		if parts, ok := cg.OutCompressedParts(); ok {
			rep.AnalyticCompressed = memmodel.CompressedCSRBytes(uint64(rep.Vertices), uint64(len(parts.Data)))
		}
		rep.AnalyticFlatCSR = memmodel.CSRBytes(uint64(rep.Vertices), rep.Edges)
	}

	// mmap: compressed IPG3 on disk, out-adjacency served from the
	// mapping, in-adjacency derived on the heap by its first reader.
	dir, err := os.MkdirTemp("", "ipregel-membackend-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, graphName+".bin")
	{
		g, err := gen.ByName(graphName, gen.PresetParams{Divisor: o.Divisor})
		if err != nil {
			return err
		}
		cg, err := g.Compress()
		if err != nil {
			return err
		}
		if err := writeGraphFile(path, cg); err != nil {
			return err
		}
	}
	// Two rows: "mmap" with the in-direction asked for explicitly — what
	// a run that pulls retains, and what this row has always measured —
	// and "mmap-out-only" as OpenMapped returns it with BuildInEdges, the
	// in-direction still to be derived: what a push-only run retains.
	for _, row := range []struct {
		name    string
		inEdges bool
	}{{"mmap", true}, {"mmap-out-only", false}} {
		var m *graphio.Mapped
		heap = memmodel.MeasureRetained(func() any {
			m, err = graphio.OpenMapped(path, graphio.Options{BuildInEdges: true})
			if err != nil {
				return nil
			}
			if row.inEdges {
				m.Graph().WithInEdges()
			}
			structural = m.Graph().MemoryBytes()
			return m
		})
		if err != nil {
			return err
		}
		mappedBytes := m.MappedBytes()
		if err := m.Close(); err != nil {
			return err
		}
		rep.Backends = append(rep.Backends, backendRow{
			Backend: row.name, HeapBytes: heap, MappedBytes: mappedBytes, StructuralBytes: structural,
			HeapPerVertex: memmodel.BytesPerVertex(heap, rep.Vertices),
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	for _, r := range rep.Backends {
		fmt.Fprintf(w, "# %-13s heap=%s (%.1f B/vertex)", r.Backend, memmodel.GB(r.HeapBytes), r.HeapPerVertex)
		if r.MappedBytes > 0 {
			fmt.Fprintf(w, " + %s mapped (evictable)", memmodel.GB(r.MappedBytes))
		}
		fmt.Fprintln(w)
	}
	return nil
}
