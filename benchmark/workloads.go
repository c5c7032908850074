package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
	"ipregel/internal/pregelplus"
)

// workload is one named set of inputs. Why is the reason it is here; it
// is also what BENCHMARK.json carries.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(r *run) error
	// oneCPU restarts the run confined to a single processor
	// (affinity_linux.go; README.md, "Why one processor").
	oneCPU bool
}

const pageRankRounds = 10

var workloads = []workload{
	{
		Name: "pagerank_rmat_push",
		Why:  "PageRank on a power-law graph, push, one thread: every vertex runs and every edge carries a message each superstep, so mailbox delivery (lock, combine, scattered write) is nearly all the work.",
		run:  func(r *run) error { return runEngine(r, pageRank(core.DirectionPush)) },
	},
	{
		Name: "pagerank_rmat_pull",
		Why:  "Same graph and program gathered over in-edges by the owning vertex, no lock taken: a push-only gain should leave this flat, an inbox or transport refactor must not slow it.",
		run:  func(r *run) error { return runEngine(r, pageRank(core.DirectionPull)) },
	},
	{
		Name: "hashmin_rmat",
		Why:  "Hashmin with selection bypass on the same graph: the frontier starts full and collapses in ~7 supersteps, so min-combine, frontier enrolment and the dense-to-sparse switch all matter.",
		run:  func(r *run) error { return runEngine(r, hashminRMAT()) },
	},
	{
		Name: "sssp_road",
		Why:  "SSSP with bypass on a road grid: ~1700 supersteps of a few hundred vertices, so per-superstep fixed cost (frontier gather, phase bookkeeping, any O(V) sweep) dominates; one thread, so no fork/join.",
		run:  func(r *run) error { return runEngine(r, ssspRoad()) },
	},
	{
		Name: "load_sssp_mmap",
		Why:  "The ipregel-run user's whole path from a compressed IPG3 file: map, rebuild in-edges, build the engine, run SSSP over varint-decoded neighbours; storage does most of the work.",
		run:  func(r *run) error { return runEngine(r, loadSSSPMapped()) },
	},
	{
		Name: "service_mixed",
		Why:  "ipregeld defaults on one processor, open loop of 20 small one-thread jobs/s (45% SSSP/BFS, 20% WCC/Hashmin, 15% PageRank, 20% cache hits; workers 12-20% busy): service code is much of the latency.",
		run:  runService,
		// Server and load generator are several threads in two processes, and
		// whether the host gives this guest's processors one core or two
		// decides how they share them; on one processor it is the same
		// either way.
		oneCPU: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// powerLaw is the RMAT stand-in for the paper's Wikipedia graph that four
// workloads share, generated from the run's seed.
func powerLaw(r *run) *graph.Graph {
	return gen.Wikipedia(gen.PresetParams{Divisor: r.sc.rmatDiv, Seed: r.opts.seed})
}

func timed[T any](f func() T) (T, time.Duration) {
	t := time.Now()
	v := f()
	return v, time.Since(t)
}

func pageRank(dir core.Direction) engineSpec[float64, float64] {
	return engineSpec[float64, float64]{
		direction: dir,
		same:      sameFloat, // push combine order is not bit-stable across cores
		vcodec:    pregelplus.Float64Codec{},
		mcodec:    pregelplus.Float64Codec{},
		setup: func(r *run) (*engineInput[float64, float64], error) {
			in := &engineInput[float64, float64]{g: powerLaw(r), prog: algorithms.PageRankProgram(pageRankRounds)}
			if dir == core.DirectionPull {
				var d time.Duration
				in.g, d = timed(in.g.WithInEdges)
				in.probes = func(r *run) error {
					r.set("graph.with_in_edges_s", d.Seconds())
					return nil
				}
			}
			in.ref, in.refTime = timed(func() []float64 { return algorithms.RefPageRank(in.g, pageRankRounds) })
			return in, nil
		},
	}
}

// bypassSpec is the engine workload of a min-combining uint32 program that
// votes to halt every superstep, run with selection bypass as the paper does.
func bypassSpec(setup func(r *run) (*engineInput[uint32, uint32], error)) engineSpec[uint32, uint32] {
	return engineSpec[uint32, uint32]{
		bypass: true,
		same:   sameUint32,
		vcodec: pregelplus.Uint32Codec{},
		mcodec: pregelplus.Uint32Codec{},
		setup:  setup,
	}
}

func hashminRMAT() engineSpec[uint32, uint32] {
	return bypassSpec(func(r *run) (*engineInput[uint32, uint32], error) {
		in := &engineInput[uint32, uint32]{g: powerLaw(r), prog: algorithms.HashminProgram()}
		in.ref, in.refTime = timed(func() []uint32 { return algorithms.RefHashmin(in.g) })
		return in, nil
	})
}

func ssspRoad() engineSpec[uint32, uint32] {
	return bypassSpec(func(r *run) (*engineInput[uint32, uint32], error) {
		g := gen.USARoad(gen.PresetParams{Divisor: r.sc.roadDiv})
		// The grid is the same for every seed; the seed draws the source
		// from the start of the first row, so the eccentricity — and
		// with it the superstep count — moves by under one percent.
		source := g.Base() + graph.VertexID(rand.New(rand.NewSource(r.opts.seed)).Intn(min(16, g.N())))
		in := &engineInput[uint32, uint32]{g: g, prog: algorithms.SSSPProgram(source)}
		in.ref, in.refTime = timed(func() []uint32 { return algorithms.RefSSSP(g, source) })
		return in, nil
	})
}

func loadSSSPMapped() engineSpec[uint32, uint32] {
	return bypassSpec(func(r *run) (*engineInput[uint32, uint32], error) {
		flat := powerLaw(r)
		source := flat.Base()
		for i, best := 0, -1; i < flat.N(); i++ {
			if d := flat.OutDegree(i); d > best {
				best, source = d, flat.ExternalID(i)
			}
		}
		in := &engineInput[uint32, uint32]{
			file: filepath.Join(r.tmp, "graph.bin"),
			prog: algorithms.SSSPProgram(source),
		}
		in.ref, in.refTime = timed(func() []uint32 { return algorithms.RefSSSP(flat, source) })
		t := time.Now()
		compressed, err := flat.Compress()
		if err != nil {
			return nil, err
		}
		compressTime := time.Since(t)
		if err := graphio.WriteFile(in.file, compressed); err != nil { // compressed graphs are written as IPG3
			return nil, err
		}
		if r.tr != nil {
			in.probes = func(r *run) error { return storageProbes(r, flat, in.file, compressTime) }
		}
		return in, nil
	})
}

// storageProbes measures the graphio and graph layers on the mapped
// workload's graph: the same graph read back from each file format, and
// the in-edge rebuild that OpenMapped does for every operation.
func storageProbes(r *run, flat *graph.Graph, ipg3 string, compressTime time.Duration) error {
	r.set("graph.compress_s", compressTime.Seconds())
	st, err := os.Stat(ipg3)
	if err != nil {
		return err
	}
	r.set("graphio.file_bytes", float64(st.Size()))

	binary := filepath.Join(r.tmp, "flat.bin")
	edgelist := filepath.Join(r.tmp, "graph.txt")
	for _, path := range []string{binary, edgelist} {
		if err := graphio.WriteFile(path, flat); err != nil {
			return err
		}
	}
	for metric, path := range map[string]string{
		"graphio.read_ipg3_mb_per_s":     ipg3,
		"graphio.read_binary_mb_per_s":   binary,
		"graphio.read_edgelist_mb_per_s": edgelist,
	} {
		rate, err := readRate(r, path)
		if err != nil {
			return err
		}
		r.set(metric, rate)
	}

	m, err := graphio.OpenMapped(ipg3, graphio.Options{})
	if err != nil {
		return err
	}
	defer m.Close()
	t := time.Now()
	withIn := m.Graph().WithInEdges()
	end := time.Now()
	r.tr.add("graph.WithInEdges", "probe", 0, t, end, map[string]any{"edges": withIn.M()})
	r.set("graph.with_in_edges_s", end.Sub(t).Seconds())
	return nil
}
