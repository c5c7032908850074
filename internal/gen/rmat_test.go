package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"ipregel/internal/graph"
)

// floatRMAT is the generator as it drew edges before the integer cuts:
// one rand.Float64 per level, the first of r < a, r < a+b, r < a+b+c that
// holds picks the quadrant, and edges with an endpoint ≥ n are redrawn.
// It is the oracle the kernel must match edge for edge.
func floatRMAT(n int, m uint64, a, b, c float64, seed int64, base graph.VertexID) *graph.Graph {
	scale := 0
	for 1<<scale < n {
		scale++
	}
	rng := rand.New(rand.NewSource(seed))
	var bld graph.Builder
	bld.ForceN = n
	bld.SetBase(base)
	for added := uint64(0); added < m; {
		var src, dst int
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		if src >= n || dst >= n {
			continue
		}
		bld.AddEdge(base+graph.VertexID(src), base+graph.VertexID(dst))
		added++
	}
	return bld.MustBuild()
}

// sameCSR reports the first difference between two flat graphs, or "".
func sameCSR(got, want *graph.Graph) string {
	if got.N() != want.N() || got.M() != want.M() || got.Base() != want.Base() {
		return fmt.Sprintf("N/M/base %d/%d/%d, want %d/%d/%d", got.N(), got.M(), got.Base(), want.N(), want.M(), want.Base())
	}
	for i := 0; i < got.N(); i++ {
		g, w := got.OutNeighbors(i), want.OutNeighbors(i)
		if len(g) != len(w) {
			return fmt.Sprintf("vertex %d: out-degree %d, want %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				return fmt.Sprintf("vertex %d: neighbour %d is %d, want %d", i, j, g[j], w[j])
			}
		}
	}
	return ""
}

// The integer kernel must draw the graph the Float64 walk drew: every
// workload, golden and recorded experiment keeps its exact input.
func TestRMATMatchesFloatKernel(t *testing.T) {
	nan := math.NaN()
	probs := [][3]float64{
		{0.57, 0.19, 0.19}, // Graph500
		{0.25, 0.25, 0.25}, // uniform
		{0.45, 0.15, 0.15}, // Friendster-like skew
		{0.6, 0.3, 0.4},    // a+b+c > 1: no bottom-right quadrant
		{-0.1, 0.5, 0.3},   // a < 0: no top-left quadrant
		{0.5, -0.2, 0.4},   // a+b < a: the sums fall
		{1, 0, 0},          // every edge 0 -> 0
		{nan, 0.2, 0.2},    // every comparison false
		{0.3, nan, 0.2},    // NaN from the second comparison on
		{0.3, 0.3, nan},    // NaN in the last comparison only
		{0.57, 0.19, 0.24}, // a+b+c == 1 in float64
		{1 - 1e-17, 0, 0},  // rounds to 1
		{math.Nextafter(1, 0), 0, 0},
	}
	for _, q := range probs {
		for scale := 0; scale <= 12; scale++ {
			for _, seed := range []int64{1, 2, 61} {
				p := RMATParams{Scale: scale, EdgeFactor: 4, A: q[0], B: q[1], C: q[2], Seed: seed, Base: 1}
				want := floatRMAT(1<<scale, uint64(4<<scale), q[0], q[1], q[2], seed, 1)
				if diff := sameCSR(RMAT(p), want); diff != "" {
					t.Fatalf("RMAT scale %d seed %d %v: %s", scale, seed, q, diff)
				}
			}
		}
	}
	for _, n := range []int{1, 2, 3, 5, 100, 1000, 3001, 4097} {
		for _, seed := range []int64{1, 7, 101, -3} {
			m := uint64(9 * n)
			want := floatRMAT(n, m, 0.57, 0.19, 0.19, seed, 1)
			if diff := sameCSR(RMATN(n, m, seed, 1, false), want); diff != "" {
				t.Fatalf("RMATN n %d seed %d: %s", n, seed, diff)
			}
		}
	}
	if g := RMAT(RMATParams{Scale: 5, EdgeFactor: -2, A: 0.57, B: 0.19, C: 0.19}); g.N() != 32 || g.M() != 0 {
		t.Fatalf("EdgeFactor -2: N=%d M=%d, want 32 vertices and no edges", g.N(), g.M())
	}
}

// A cut splits [0, 2^63) exactly where the Float64 comparison flips.
func TestCutBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := []float64{0, 1, 0.5, 0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 2, -1, math.Nextafter(1, 0), math.SmallestNonzeroFloat64, 1e-300}
	for i := 0; i < 200; i++ {
		ps = append(ps, rng.Float64())
	}
	less := func(x uint64, p float64) bool { return float64(int64(x))/(1<<63) < p }
	for _, p := range ps {
		c := cut(p)
		if c > 0 && !less(c-1, p) {
			t.Fatalf("cut(%v) = %d: the draw below fails the comparison", p, c)
		}
		if c < 1<<63 && less(c, p) {
			t.Fatalf("cut(%v) = %d: the cut itself passes the comparison", p, c)
		}
	}
	if cut(math.NaN()) != 0 || cut(2) != 1<<63 {
		t.Fatalf("cut(NaN) = %d, cut(2) = %d; want 0 and 2^63", cut(math.NaN()), cut(2))
	}
}

// FuzzRMATKernel compares the first edges the two kernels draw for an
// arbitrary seed and quadrant probabilities (`make fuzz` runs it). The
// vertex count is a power of two, so no edge is ever rejected and a
// degenerate probability set cannot stall the draw.
func FuzzRMATKernel(f *testing.F) {
	f.Add(int64(1), 0.57, 0.19, 0.19)
	f.Add(int64(61), 0.6, 0.3, 0.4)
	f.Add(int64(-9), -0.1, 0.5, 0.3)
	f.Add(int64(3), 0.5, -0.2, 0.4)
	f.Add(int64(4), math.NaN(), 0.2, 0.2)
	f.Add(int64(5), math.Nextafter(1, 0), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, a, b, c float64) {
		p := RMATParams{Scale: 11, EdgeFactor: 2, A: a, B: b, C: c, Seed: seed}
		want := floatRMAT(1<<11, 2<<11, a, b, c, seed, 0)
		if diff := sameCSR(RMAT(p), want); diff != "" {
			t.Fatalf("seed %d (%v, %v, %v): %s", seed, a, b, c, diff)
		}
	})
}

// contentHash is FNV-64a over N (u64 LE), then for each vertex in index
// order its out-neighbours (u32 LE each) and one 0xff byte.
func contentHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.N()))
	h.Write(buf[:])
	for i := 0; i < g.N(); i++ {
		for _, v := range g.OutNeighbors(i) {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// The benchmark's RMAT workloads (wiki/128) and the service's resident
// graph (wiki/2048) at the seeds they were recorded on: a generator change
// that moves any edge changes every recorded number built on them.
func TestPresetGolden(t *testing.T) {
	for _, c := range []struct {
		divisor int
		seed    int64
		want    uint64
	}{
		{128, 1, 0x4f2cc42e6984f343},
		{128, 61, 0xffa70ab26f155981},
		{2048, 1, 0x5dbddfd93323e511},
	} {
		if got := contentHash(Wikipedia(PresetParams{Divisor: c.divisor, Seed: c.seed})); got != c.want {
			t.Errorf("wiki/%d seed %d: content hash %016x, want %016x", c.divisor, c.seed, got, c.want)
		}
	}
}

// BenchmarkRMAT reports the generator's cost per placed edge of a wiki
// stand-in (one quadrant level per id bit, rejected draws included).
func BenchmarkRMAT(b *testing.B) {
	p := PresetParams{Divisor: 1024, Seed: 1}
	var m uint64
	for i := 0; i < b.N; i++ {
		m += Wikipedia(p).M()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m), "ns/edge")
}
