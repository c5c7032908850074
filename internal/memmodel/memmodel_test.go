package memmodel

import (
	"os"
	"path/filepath"
	"testing"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
)

func TestMeasurePeakHeapSeesAllocation(t *testing.T) {
	const chunk = 64 << 20
	peak, baseline := MeasurePeakHeap(func() {
		buf := make([]byte, chunk)
		for i := 0; i < len(buf); i += 4096 {
			buf[i] = 1
		}
		_ = buf
	})
	if peak < baseline+chunk/2 {
		t.Fatalf("peak %d did not register a %d-byte allocation over baseline %d", peak, chunk, baseline)
	}
}

func TestGraphBinaryBytesMatchesPaper(t *testing.T) {
	// §7.4.2: "The binary size of the Twitter graph is calculated to 8GB".
	b := GraphBinaryBytes(gen.TwitterV, gen.TwitterE)
	if b < 7_800_000_000 || b > 8_300_000_000 {
		t.Fatalf("Twitter binary size = %s, paper says ≈8GB", GB(b))
	}
}

// The analytic iPregel model must agree exactly with the engine's own
// accounting plus the graph's CSR cost (no drift between model and code).
// The model counts the bypass frontier lists at their worst case; a
// freshly built engine has allocated none of them, so bypass rows add that
// worst case to the engine's side: every vertex, since 500 vertices are
// under the push list cap's minSpan floor.
func TestIPregelModelMatchesEngine(t *testing.T) {
	g := gen.RMATN(500, 3000, 11, 1, true)
	for _, cfg := range []core.Config{
		{Combiner: core.CombinerMutex},
		{Combiner: core.CombinerSpin},
		{Direction: core.DirectionPull},
		{Direction: core.DirectionPull, SelectionBypass: true},
		// One worker takes no lock, so it allocates none (the plain
		// inbox); two pay for the configured protection.
		{Combiner: core.CombinerMutex, Threads: 1},
		{Combiner: core.CombinerSpin, Threads: 1},
		{Combiner: core.CombinerMutex, Threads: 2},
		{Combiner: core.CombinerSpin, Threads: 2},
		// A push-only bypass engine enrols at the first inbox fill and
		// allocates no dedup flags; one that can pull does, beside its
		// outbox.
		{Combiner: core.CombinerSpin, SelectionBypass: true, Threads: 1},
		{Combiner: core.CombinerSpin, SelectionBypass: true, Threads: 2},
		{Combiner: core.CombinerMutex, SelectionBypass: true, Threads: 2},
		{Combiner: core.CombinerSpin, Direction: core.DirectionAdaptive, SelectionBypass: true, Threads: 1},
		{Combiner: core.CombinerSpin, Direction: core.DirectionAdaptive, SelectionBypass: true, Threads: 2},
		// A pull-only engine takes no lock at any thread count.
		{Combiner: core.CombinerMutex, Direction: core.DirectionPull, Threads: 2},
		{Combiner: core.CombinerMutex, Direction: core.DirectionAdaptive, Threads: 2},
	} {
		e, err := core.New(g, cfg, core.Program[uint32, uint32]{
			Compute: func(*core.Context[uint32, uint32], core.Vertex[uint32, uint32]) {},
			Combine: func(*uint32, uint32) {},
		})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		got := IPregelBytes(IPregelParams{
			Config: cfg, V: 500, E: 3000,
			ValueBytes: 4, MessageBytes: 4,
			InAdjacency: true, OutAdjacency: true,
		})
		want := e.FootprintBytes() + g.MemoryBytes()
		if cfg.SelectionBypass {
			want += 2 * 500 * 4
		}
		if got != want {
			t.Fatalf("%s/threads=%d: model %d != engine+graph %d", cfg.VersionName(), cfg.Threads, got, want)
		}
	}
}

func TestIPregelModelVersionOrdering(t *testing.T) {
	base := IPregelParams{V: 1 << 20, E: 1 << 23, ValueBytes: 8, MessageBytes: 8, OutAdjacency: true}
	mutex, spin, pull := base, base, base
	// Threads: 2 — a one-thread engine allocates no lock to compare.
	mutex.Config = core.Config{Combiner: core.CombinerMutex, Threads: 2}
	spin.Config = core.Config{Combiner: core.CombinerSpin, Threads: 2}
	pull.Config = core.Config{Direction: core.DirectionPull}
	pull.InAdjacency = true
	bm, bs := IPregelBytes(mutex), IPregelBytes(spin)
	if bs >= bm {
		t.Fatalf("spinlock model (%d) should be lighter than mutex (%d)", bs, bm)
	}
	// §7.4.1: adding bypass to broadcast grows memory (out-neighbours on
	// top of in-neighbours).
	pullBypass := pull
	pullBypass.Config.SelectionBypass = true
	if IPregelBytes(pullBypass) <= IPregelBytes(pull) {
		t.Fatal("broadcast+bypass should cost more than broadcast")
	}
}

// §7.4.3's headline: full-scale Twitter PageRank — iPregel ≈11GB,
// Pregel+ ≈109GB, Giraph ≈264GB. The models must land close to the
// paper's reported numbers.
func TestFullScaleProjectionsMatchPaper(t *testing.T) {
	ip := IPregelBytes(IPregelParams{
		Config:       core.Config{Direction: core.DirectionPull},
		V:            gen.TwitterV,
		E:            gen.TwitterE,
		ValueBytes:   8,
		MessageBytes: 8,
		InAdjacency:  true,
		OutAdjacency: false, // the paper's "in only" internals for pull PageRank
	})
	if ip < 9_000_000_000 || ip > 13_000_000_000 {
		t.Fatalf("iPregel Twitter projection = %s, paper measured 11.01GB", GB(ip))
	}
	pp := PregelPlusBytes(PregelPlusParams{
		V: gen.TwitterV, E: gen.TwitterE,
		MessageBytes: 8, ValueBytes: 8, Workers: 32, Combiner: true,
	})
	if pp < 80_000_000_000 || pp > 140_000_000_000 {
		t.Fatalf("Pregel+ Twitter projection = %s, paper reports 109GB", GB(pp))
	}
	gir := GiraphBytes(gen.TwitterV, gen.TwitterE)
	if gir < 240_000_000_000 || gir > 290_000_000_000 {
		t.Fatalf("Giraph Twitter projection = %s, paper reports 264GB", GB(gir))
	}
	// Order-of-magnitude claims: iPregel ≈10× lighter than Pregel+, ≈25×
	// lighter than Giraph.
	if r := float64(pp) / float64(ip); r < 6 || r > 14 {
		t.Fatalf("Pregel+/iPregel ratio = %.1f, paper says 10", r)
	}
	if r := float64(gir) / float64(ip); r < 18 || r > 32 {
		t.Fatalf("Giraph/iPregel ratio = %.1f, paper says 25", r)
	}
}

// §7.4.3: the Friendster graph fits under 16 GB with the pull version.
func TestFriendsterFitsSixteenGB(t *testing.T) {
	ip := IPregelBytes(IPregelParams{
		Config:       core.Config{Direction: core.DirectionPull},
		V:            gen.FriendsterV,
		E:            gen.FriendsterE,
		ValueBytes:   8,
		MessageBytes: 8,
		InAdjacency:  true,
	})
	if !FitsBudget(ip, 16_000_000_000) {
		t.Fatalf("Friendster projection %s does not fit 16GB (paper measured 14.45GB)", GB(ip))
	}
	if ip < 12_000_000_000 {
		t.Fatalf("Friendster projection %s suspiciously small", GB(ip))
	}
}

func TestPregelPlusModelBranches(t *testing.T) {
	base := PregelPlusParams{V: 1 << 20, E: 1 << 24, MessageBytes: 8, ValueBytes: 8, Workers: 8}
	withComb := base
	withComb.Combiner = true
	// Combining bounds inbox growth at V×Workers messages; on this dense
	// graph that is below E, so the combined model must be smaller.
	if PregelPlusBytes(withComb) >= PregelPlusBytes(base) {
		t.Fatal("combiner should shrink the Pregel+ model on dense graphs")
	}
	// More workers add per-process environment overhead.
	more := base
	more.Workers = 32
	if PregelPlusBytes(more) <= PregelPlusBytes(base) {
		t.Fatal("workers should add environment overhead")
	}
}

func TestCSRBytes(t *testing.T) {
	if CSRBytes(10, 20) != 4*11+4*20 {
		t.Fatal("CSRBytes formula")
	}
}

func TestGBFormatting(t *testing.T) {
	if GB(11_010_000_000) != "11.01GB" {
		t.Fatalf("GB = %q", GB(11_010_000_000))
	}
}

func TestFitsBudget(t *testing.T) {
	if !FitsBudget(5, 5) || FitsBudget(6, 5) {
		t.Fatal("FitsBudget")
	}
}

// Footprint regression for the graph backends: on a power-law graph
// with sorted adjacency and both directions, the measured resident heap
// must fall strictly tier by tier — flat CSR > block-compressed > an IPG3
// file mapped read-only serving in-edges (only the derived in-adjacency
// is on the heap) > the same mapping before anything read its in side —
// and the flat and compressed measured and structural footprints must
// agree with the analytic models within slack for allocator rounding.
func TestCompressedBackendFootprint(t *testing.T) {
	build := func() *graph.Graph {
		// Sorted adjacency (what Builder.Compress would produce) so the
		// delta encoding gets its intended ratio.
		src := gen.RMATN(20_000, 160_000, 7, 0, false)
		var b graph.Builder
		b.SortAdjacency()
		b.BuildInEdges()
		src.Edges(func(u, v graph.VertexID) bool {
			b.AddEdge(u, v)
			return true
		})
		return b.MustBuild()
	}
	flat := build()
	compressed, err := flat.Compress()
	if err != nil {
		t.Fatal(err)
	}

	measuredFlat := MeasureRetained(func() any { return build() })
	measuredComp := MeasureRetained(func() any {
		cg, err := build().Compress()
		if err != nil {
			t.Fatal(err)
		}
		return cg
	})
	t.Logf("flat: measured=%s structural=%s (%.1f B/vertex)", GB(measuredFlat), GB(flat.MemoryBytes()), BytesPerVertex(measuredFlat, flat.N()))
	t.Logf("compressed: measured=%s structural=%s (%.1f B/vertex)", GB(measuredComp), GB(compressed.MemoryBytes()), BytesPerVertex(measuredComp, flat.N()))

	// The mmap rows: the compressed graph as an IPG3 file, opened as
	// ipregel-run -graph-backend mmap opens it. "mmap" has its in-side
	// derived, what a run that pulls retains; "mmap out-only" has not,
	// what a push-only run retains. Only the heap counts: the mapped
	// pages are file-backed and evictable.
	path := filepath.Join(t.TempDir(), "g.ipg3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteBinary(f, compressed); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	measureMapped := func(inEdges bool) uint64 {
		var m *graphio.Mapped
		heap := MeasureRetained(func() any {
			var err error
			if m, err = graphio.OpenMapped(path, graphio.Options{BuildInEdges: true}); err != nil {
				t.Fatal(err)
			}
			if inEdges {
				m.Graph().WithInEdges()
			}
			return m
		})
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		return heap
	}
	measuredMmap := measureMapped(true)
	measuredOutOnly := measureMapped(false)
	t.Logf("mmap with in-edges: measured=%s; mmap out-only: measured=%s", GB(measuredMmap), GB(measuredOutOnly))

	if !(measuredComp < measuredFlat && measuredMmap < measuredComp && measuredOutOnly < measuredMmap) {
		t.Fatalf("backend heap bytes not strictly decreasing: flat=%d compressed=%d mmap=%d mmap-out-only=%d",
			measuredFlat, measuredComp, measuredMmap, measuredOutOnly)
	}

	// Measured vs structural: the allocator may round spans up, but the
	// retained heap growth must stay near the structural byte count.
	within := func(name string, measured, structural uint64) {
		lo, hi := structural*8/10, structural*13/10
		if measured < lo || measured > hi {
			t.Fatalf("%s: measured %d bytes vs structural %d (outside [%d, %d])", name, measured, structural, lo, hi)
		}
	}
	within("flat", measuredFlat, flat.MemoryBytes())
	within("compressed", measuredComp, compressed.MemoryBytes())

	// Analytic vs structural, out-direction: CompressedCSRBytes with the
	// actual stream length must match the graph's block arrays exactly.
	parts, ok := compressed.OutCompressedParts()
	if !ok {
		t.Fatal("compressed graph has no out parts")
	}
	analytic := CompressedCSRBytes(uint64(flat.N()), uint64(len(parts.Data)))
	structural := uint64(4*len(parts.Deg) + 8*len(parts.BlockOff) + 8*len(parts.BlockEdge) + len(parts.Data))
	if analytic != structural {
		t.Fatalf("CompressedCSRBytes = %d, actual block arrays = %d", analytic, structural)
	}
	if flatCSR := CSRBytes(uint64(flat.N()), uint64(flat.M())); analytic >= flatCSR {
		t.Fatalf("analytic compressed %d bytes >= flat CSR %d", analytic, flatCSR)
	}
}
