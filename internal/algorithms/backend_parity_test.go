package algorithms

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
	"ipregel/internal/pregelplus"
)

// Backend parity battery: the engine must be oblivious to how the
// adjacency is stored. For PageRank, SSSP and WCC, every cell of
// {flat, compressed, mmap} × {atomic inbox at four threads, spinlock
// inbox at two} must produce the same Report
// fingerprint (superstep counts, message totals, per-step
// ran/messages/active/next-frontier) and the same values as the flat
// run of the same configuration. g.Compress()
// preserves neighbour order exactly, so even order-sensitive float
// combining sees identical per-vertex message multisets.

// backendVariant is one adjacency storage backend under test.
type backendVariant struct {
	name string
	g    *graph.Graph
}

// backendVariants materialises g under every backend: the flat CSR
// itself, its block-compressed twin, and the compressed form written as
// an IPG3 file and mapped back with graphio.OpenMapped (pages served
// from the file, validated eagerly). Mappings are closed via t.Cleanup.
func backendVariants(t *testing.T, name string, g *graph.Graph) []backendVariant {
	t.Helper()
	cg, err := g.Compress()
	if err != nil {
		t.Fatalf("%s: compress: %v", name, err)
	}
	path := filepath.Join(t.TempDir(), name+".bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteBinary(f, cg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := graphio.OpenMapped(path, graphio.Options{BuildInEdges: g.HasInEdges()})
	if err != nil {
		t.Fatalf("%s: OpenMapped: %v", name, err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Errorf("%s: close mapping: %v", name, err)
		}
	})
	return []backendVariant{
		{"flat", g},
		{"compressed", cg},
		{"mmap", m.Graph()},
	}
}

// backendParityConfigs is the engine-configuration axis of the battery:
// push cells (pull parity is covered by the cross-engine tests) with
// invariant checking on.
func backendParityConfigs() []core.Config {
	return []core.Config{
		{Combiner: core.CombinerMutex, Threads: 4, CheckInvariants: true},
		{Combiner: core.CombinerSpin, Threads: 2, CheckInvariants: true},
	}
}

func backendParityGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat": gen.RMATN(400, 2600, 11, 1, true), // power-law: hot hubs span blocks
		"road": gen.Road(gen.RoadParams{Rows: 12, Cols: 14, Seed: 5, Base: 1, BuildInEdges: true}),
	}
}

// cellName labels one (config, backend) cell for failure messages.
func cellName(cfg core.Config, backend string) string {
	return cfg.VersionName() + "/" + backend
}

func TestBackendParitySSSP(t *testing.T) {
	for gname, g := range backendParityGraphs() {
		variants := backendVariants(t, gname, g)
		for _, cfg := range backendParityConfigs() {
			cfg.SelectionBypass = true
			cfg.CheckInvariants = true
			var wantVals []uint32
			var wantFP string
			for _, v := range variants {
				got, rep, err := SSSP(v.g, cfg, 2)
				if err != nil {
					t.Fatalf("%s/%s: %v", gname, cellName(cfg, v.name), err)
				}
				fp := rep.Fingerprint()
				if v.name == "flat" {
					wantVals, wantFP = got, fp
					continue
				}
				if fp != wantFP {
					t.Fatalf("%s/%s: report fingerprint diverged from flat:\ngot:\n%s\nwant:\n%s",
						gname, cellName(cfg, v.name), fp, wantFP)
				}
				for i := range wantVals {
					if got[i] != wantVals[i] { // min combine: exact
						t.Fatalf("%s/%s: dist[%d] = %d, flat %d", gname, cellName(cfg, v.name), i, got[i], wantVals[i])
					}
				}
			}
		}
	}
}

func TestBackendParityWCC(t *testing.T) {
	for gname, g := range backendParityGraphs() {
		variants := backendVariants(t, gname, g)
		oracle := RefWCC(g.Symmetrize(false))
		for _, cfg := range backendParityConfigs() {
			var wantVals []uint32
			var wantFP string
			for _, v := range variants {
				got, rep, err := WCC(v.g, cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", gname, cellName(cfg, v.name), err)
				}
				fp := rep.Fingerprint()
				if v.name == "flat" {
					wantVals, wantFP = got, fp
					for i := range got {
						if got[i] != oracle[i] {
							t.Fatalf("%s/%s: label[%d] = %d, union-find oracle %d", gname, cellName(cfg, v.name), i, got[i], oracle[i])
						}
					}
					continue
				}
				if fp != wantFP {
					t.Fatalf("%s/%s: report fingerprint diverged from flat:\ngot:\n%s\nwant:\n%s",
						gname, cellName(cfg, v.name), fp, wantFP)
				}
				for i := range wantVals {
					if got[i] != wantVals[i] {
						t.Fatalf("%s/%s: label[%d] = %d, flat %d", gname, cellName(cfg, v.name), i, got[i], wantVals[i])
					}
				}
			}
		}
	}
}

func TestBackendParityPageRank(t *testing.T) {
	for gname, g := range backendParityGraphs() {
		variants := backendVariants(t, gname, g)
		for _, cfg := range backendParityConfigs() {
			var wantVals []float64
			var wantFP string
			for _, v := range variants {
				got, rep, err := PageRank(v.g, cfg, 15)
				if err != nil {
					t.Fatalf("%s/%s: %v", gname, cellName(cfg, v.name), err)
				}
				fp := rep.Fingerprint()
				if v.name == "flat" {
					wantVals, wantFP = got, fp
					continue
				}
				if fp != wantFP {
					t.Fatalf("%s/%s: report fingerprint diverged from flat:\ngot:\n%s\nwant:\n%s",
						gname, cellName(cfg, v.name), fp, wantFP)
				}
				for i := range wantVals {
					// same neighbour order on every backend, but multi-thread
					// delivery order still varies run to run: rounding slack
					if math.Abs(got[i]-wantVals[i]) > 1e-9*(1+math.Abs(wantVals[i])) {
						t.Fatalf("%s/%s: rank[%d] = %v, flat %v", gname, cellName(cfg, v.name), i, got[i], wantVals[i])
					}
				}
			}
		}
	}
}

// TestBackendParityDirection is the direction battery: the
// per-superstep direction axis {pull, adaptive} × every backend must
// match the push/flat oracle of the same engine configuration —
// fingerprints and values — for SSSP, PageRank and WCC.
func TestBackendParityDirection(t *testing.T) {
	configs := backendParityConfigs()

	for gname, g := range backendParityGraphs() {
		variants := backendVariants(t, gname, g)
		for _, base := range configs {
			// Push on the flat backend is the oracle for every
			// (backend, direction) cell of this configuration.
			wantDist, repS, err := SSSP(g, base, 2)
			if err != nil {
				t.Fatal(err)
			}
			wantRank, repP, err := PageRank(g, base, 15)
			if err != nil {
				t.Fatal(err)
			}
			wantLabel, repW, err := WCC(g, base)
			if err != nil {
				t.Fatal(err)
			}
			fpS, fpP, fpW := repS.Fingerprint(), repP.Fingerprint(), repW.Fingerprint()

			for _, dir := range []core.Direction{core.DirectionPull, core.DirectionAdaptive} {
				cfg := base
				cfg.Direction = dir
				for _, v := range variants {
					cell := gname + "/" + cellName(cfg, v.name)
					dist, rep, err := SSSP(v.g, cfg, 2)
					if err != nil {
						t.Fatalf("%s: sssp: %v", cell, err)
					}
					if fp := rep.Fingerprint(); fp != fpS {
						t.Fatalf("%s: sssp fingerprint diverged from push/flat:\ngot:\n%s\nwant:\n%s", cell, fp, fpS)
					}
					for i := range wantDist {
						if dist[i] != wantDist[i] {
							t.Fatalf("%s: dist[%d] = %d, push/flat %d", cell, i, dist[i], wantDist[i])
						}
					}
					rank, rep, err := PageRank(v.g, cfg, 15)
					if err != nil {
						t.Fatalf("%s: pagerank: %v", cell, err)
					}
					if fp := rep.Fingerprint(); fp != fpP {
						t.Fatalf("%s: pagerank fingerprint diverged from push/flat:\ngot:\n%s\nwant:\n%s", cell, fp, fpP)
					}
					for i := range wantRank {
						if math.Abs(rank[i]-wantRank[i]) > 1e-9*(1+math.Abs(wantRank[i])) {
							t.Fatalf("%s: rank[%d] = %v, push/flat %v", cell, i, rank[i], wantRank[i])
						}
					}
					label, rep, err := WCC(v.g, cfg)
					if err != nil {
						t.Fatalf("%s: wcc: %v", cell, err)
					}
					if fp := rep.Fingerprint(); fp != fpW {
						t.Fatalf("%s: wcc fingerprint diverged from push/flat:\ngot:\n%s\nwant:\n%s", cell, fp, fpW)
					}
					for i := range wantLabel {
						if label[i] != wantLabel[i] {
							t.Fatalf("%s: label[%d] = %d, push/flat %d", cell, i, label[i], wantLabel[i])
						}
					}
				}
			}
		}
	}
}

// TestBackendParityAdaptiveResume round-trips an adaptive SSSP run
// through barrier checkpoints on every backend: a run restored from any
// checkpoint — including one taken immediately before a direction
// switch — must re-derive the same per-superstep directions and finish
// with the push-oracle distances.
func TestBackendParityAdaptiveResume(t *testing.T) {
	// The road graph's uniform low degree makes the adaptive heuristic
	// switch several times (pull at the dense wavefront, push at the
	// sparse tails); on the rmat graph every late frontier still holds a
	// hub, so it never leaves pull and would prove nothing here.
	g := backendParityGraphs()["road"]
	cfg := core.Config{
		Combiner: core.CombinerMutex, Threads: 4,
		Direction: core.DirectionAdaptive, CheckInvariants: true,
	}
	prog := SSSPProgram(2)
	for _, v := range backendVariants(t, "road", g) {
		saved := map[int]*bytes.Buffer{}
		e, err := core.New(v.g, cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		err = e.SetCheckpointer(core.Checkpointer[uint32, uint32]{
			Every:  1,
			Sink:   func(step int) (io.Writer, error) { buf := &bytes.Buffer{}; saved[step] = buf; return buf, nil },
			VCodec: pregelplus.Uint32Codec{},
			MCodec: pregelplus.Uint32Codec{},
		})
		if err != nil {
			t.Fatal(err)
		}
		full, err := e.Run()
		if err != nil {
			t.Fatalf("%s: full run: %v", v.name, err)
		}
		want := e.ValuesDense()
		switched := false
		for _, s := range full.Steps {
			switched = switched || s.DirectionSwitched
		}
		if !switched {
			t.Fatalf("%s: adaptive SSSP never switched; resume would prove nothing\n%v", v.name, full.Table())
		}
		for step, buf := range saved {
			restored, err := core.Restore(bytes.NewReader(buf.Bytes()), v.g, cfg, prog,
				pregelplus.Uint32Codec{}, pregelplus.Uint32Codec{})
			if err != nil {
				t.Fatalf("%s: restore at %d: %v", v.name, step, err)
			}
			rep, err := restored.Run()
			if err != nil {
				t.Fatalf("%s: resume from %d: %v", v.name, step, err)
			}
			for j, s := range rep.Steps {
				abs := rep.FirstSuperstep + j
				if abs >= len(full.Steps) {
					break
				}
				if s.Direction != full.Steps[abs].Direction {
					t.Fatalf("%s: resume from %d: superstep %d ran %v, original ran %v",
						v.name, step, abs, s.Direction, full.Steps[abs].Direction)
				}
			}
			for i, d := range restored.ValuesDense() {
				if d != want[i] {
					t.Fatalf("%s: resume from %d: dist[%d] = %d, want %d", v.name, step, i, d, want[i])
				}
			}
		}
	}
}

// TestBackendParityPull exercises the pull combiner on the compressed and
// mapped backends: the collect phase walks in-neighbours through the
// per-worker decode buffers, and on the mmap backend the in-CSR is the
// heap-side compressed reverse built by OpenMapped's BuildInEdges while
// the out-CSR stays on the mapping.
func TestBackendParityPull(t *testing.T) {
	for gname, g := range backendParityGraphs() {
		variants := backendVariants(t, gname, g)
		// One oracle per graph: the lock-free inbox is held to the same
		// values and fingerprint on every backend AND every thread count.
		var wantVals []uint32
		var wantFP string
		for _, threads := range []int{1, 4} {
			cfg := core.Config{Direction: core.DirectionPull, Threads: threads, CheckInvariants: true}
			for _, v := range variants {
				got, rep, err := SSSP(v.g, cfg, 2)
				if err != nil {
					t.Fatalf("%s/%s: %v", gname, cellName(cfg, v.name), err)
				}
				fp := rep.Fingerprint()
				if wantVals == nil {
					wantVals, wantFP = got, fp
					continue
				}
				if fp != wantFP {
					t.Fatalf("%s/%s: report fingerprint diverged from flat:\ngot:\n%s\nwant:\n%s",
						gname, cellName(cfg, v.name), fp, wantFP)
				}
				for i := range wantVals {
					if got[i] != wantVals[i] {
						t.Fatalf("%s/%s: dist[%d] = %d, flat %d", gname, cellName(cfg, v.name), i, got[i], wantVals[i])
					}
				}
			}
		}
	}
}
