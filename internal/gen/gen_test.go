package gen

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ipregel/internal/graph"
)

func TestRMATBasics(t *testing.T) {
	g := RMAT(DefaultRMAT(8, 8, 42))
	if g.N() != 256 {
		t.Fatalf("N=%d want 256", g.N())
	}
	if g.M() != 256*8 {
		t.Fatalf("M=%d want %d", g.M(), 256*8)
	}
	if g.Base() != 1 {
		t.Fatalf("Base=%d want 1", g.Base())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(DefaultRMAT(7, 4, 9))
	b := RMAT(DefaultRMAT(7, 4, 9))
	if a.M() != b.M() {
		t.Fatal("same seed produced different sizes")
	}
	for i := 0; i < a.N(); i++ {
		av, bv := a.OutNeighbors(i), b.OutNeighbors(i)
		if len(av) != len(bv) {
			t.Fatalf("vertex %d degree differs", i)
		}
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("vertex %d adjacency differs", i)
			}
		}
	}
	c := RMAT(DefaultRMAT(7, 4, 10))
	same := true
	for i := 0; i < a.N() && same; i++ {
		if len(a.OutNeighbors(i)) != len(c.OutNeighbors(i)) {
			same = false
		}
	}
	if same {
		t.Log("different seeds produced identical degree sequences (unlikely but possible)")
	}
}

// The power-law shape is what makes the RMAT graph a valid Wikipedia/
// Twitter stand-in: its degree inequality must far exceed a road grid's.
func TestShapeContrast(t *testing.T) {
	rmat := RMAT(DefaultRMAT(10, 8, 1))
	road := Road(RoadParams{Rows: 90, Cols: 90, Base: 1})
	gRMAT := graph.GiniOutDegree(rmat)
	gRoad := graph.GiniOutDegree(road)
	if gRMAT < 0.4 {
		t.Fatalf("RMAT Gini = %.3f, want power-law (>0.4)", gRMAT)
	}
	if gRoad > 0.1 {
		t.Fatalf("road Gini = %.3f, want near-uniform (<0.1)", gRoad)
	}
	if gRMAT <= 2*gRoad {
		t.Fatalf("degree-shape contrast too weak: rmat %.3f vs road %.3f", gRMAT, gRoad)
	}
}

func TestRoadGrid(t *testing.T) {
	g := Road(RoadParams{Rows: 3, Cols: 4, Base: 1})
	if g.N() != 12 {
		t.Fatalf("N=%d want 12", g.N())
	}
	// 2 directions * (rows*(cols-1) + cols*(rows-1)) = 2*(9+8) = 34
	if g.M() != 34 {
		t.Fatalf("M=%d want 34", g.M())
	}
	// corner vertex (0,0) has degree 2; interior has 4.
	if d := g.OutDegree(0); d != 2 {
		t.Fatalf("corner degree=%d want 2", d)
	}
	if d := g.OutDegree(1*4 + 1); d != 4 {
		t.Fatalf("interior degree=%d want 4", d)
	}
}

func TestRoadHighways(t *testing.T) {
	plain := Road(RoadParams{Rows: 10, Cols: 10})
	hw := Road(RoadParams{Rows: 10, Cols: 10, HighwayFraction: 0.1, Seed: 5})
	if hw.M() != plain.M()+2*10 {
		t.Fatalf("highway edges: M=%d want %d", hw.M(), plain.M()+20)
	}
}

func TestRoadSymmetric(t *testing.T) {
	g := Road(RoadParams{Rows: 5, Cols: 5, HighwayFraction: 0.2, Seed: 3}).WithInEdges()
	for i := 0; i < g.N(); i++ {
		if g.OutDegree(i) != g.InDegree(i) {
			t.Fatalf("vertex %d: out %d != in %d (roads must be two-way)", i, g.OutDegree(i), g.InDegree(i))
		}
	}
}

func TestSimpleShapes(t *testing.T) {
	if g := Ring(10, 0); g.N() != 10 || g.M() != 10 || g.OutDegree(9) != 1 {
		t.Fatal("ring malformed")
	}
	if g := Star(10, 0); g.N() != 10 || g.M() != 9 || g.OutDegree(0) != 9 {
		t.Fatal("star malformed")
	}
	if g := Chain(10, 0); g.N() != 10 || g.M() != 9 || g.OutDegree(9) != 0 {
		t.Fatal("chain malformed")
	}
	if g := Complete(5, 0); g.N() != 5 || g.M() != 20 {
		t.Fatal("complete malformed")
	}
	if g := ER(50, 200, 1, 0); g.N() != 50 || g.M() != 200 {
		t.Fatal("ER malformed")
	}
}

func TestRMATNExactSizes(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%100) + 3
		m := uint64(mRaw % 200)
		g := RMATN(n, m, seed, 1, false)
		return g.N() == n && g.M() == m && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Proportional scaling is the core contract of the Fig. 9 experiment.
func TestTwitterProportionalScaling(t *testing.T) {
	p := PresetParams{Divisor: 8192}
	g20 := Twitter(p, 20)
	g40 := Twitter(p, 40)
	if g40.N() < g20.N()*19/10 || g40.N() > g20.N()*21/10 {
		t.Fatalf("vertex scaling not proportional: 20%%=%d 40%%=%d", g20.N(), g40.N())
	}
	if g40.M() < g20.M()*19/10 || g40.M() > g20.M()*21/10 {
		t.Fatalf("edge scaling not proportional: 20%%=%d 40%%=%d", g20.M(), g40.M())
	}
}

func TestPresetRatios(t *testing.T) {
	p := PresetParams{Divisor: 4096}
	wiki := Wikipedia(p)
	wantAvg := float64(WikipediaE) / float64(WikipediaV)
	gotAvg := float64(wiki.M()) / float64(wiki.N())
	if gotAvg < wantAvg*0.95 || gotAvg > wantAvg*1.05 {
		t.Fatalf("wiki avg degree %.2f, want ~%.2f", gotAvg, wantAvg)
	}
	usa := USARoad(p)
	if usa.N() < USARoadV/4096*9/10 {
		t.Fatalf("usa N=%d too small", usa.N())
	}
	fr := Friendster(PresetParams{Divisor: 16384})
	if fr.N() == 0 || fr.M() == 0 {
		t.Fatal("friendster empty")
	}
}

func TestByName(t *testing.T) {
	p := PresetParams{Divisor: 8192}
	for _, name := range []string{"wiki", "usa", "twitter", "friendster", "rmat:6:4", "road:5:5", "er:20:40", "ring:7", "star:7", "chain:7", "ba:30:2", "ws:30:2"} {
		g, err := ByName(name, p)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if g.N() == 0 {
			t.Fatalf("ByName(%q): empty graph", name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope", p); err == nil {
		t.Fatal("expected error for unknown name")
	}
	// Refused before anything is built: these panicked (a negative size),
	// ran out of memory (scale 32) or spun forever (edges but no vertices).
	for _, c := range []struct {
		spec    string
		divisor int
	}{
		{"rmat:-1:4", 0}, {"rmat:6:-4", 0}, {"rmat:32:0", 0}, {"er:-5:10", 0}, {"er:0:10", 0},
		{"er:5:-1", 0}, {"ba:-4:2", 0}, {"ws:-3:2", 0}, {"road:-2:3", 0}, {"ring:-1", 0},
		{"star:-1", 0}, {"chain:-1", 0}, {"wiki", 20_000_000}, {"wiki", WikipediaE},
		{"twitter", 60_000_000}, {"friendster", 100_000_000},
	} {
		_, err := ByName(c.spec, PresetParams{Divisor: c.divisor})
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.spec)) {
			t.Errorf("ByName(%q) at divisor %d: error %v, want one quoting the spec", c.spec, c.divisor, err)
		}
	}
	// No edges to place: an empty graph, not an error.
	for _, c := range []struct {
		spec    string
		divisor int
	}{{"er:0:0", 0}, {"wiki", WikipediaE + 1}, {"rmat:0:3", 0}} {
		if g, err := ByName(c.spec, PresetParams{Divisor: c.divisor}); err != nil || g.Validate() != nil {
			t.Errorf("ByName(%q) at divisor %d: %v", c.spec, c.divisor, err)
		}
	}
	if len(Names()) == 0 {
		t.Fatal("Names empty")
	}
}

func TestByNameInEdges(t *testing.T) {
	g, err := ByName("ring:5", PresetParams{BuildInEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasInEdges() {
		t.Fatal("BuildInEdges ignored")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 3, 7, 1).WithInEdges()
	if g.N() != 500 {
		t.Fatalf("N=%d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Undirected: in-degree == out-degree everywhere.
	for i := 0; i < g.N(); i++ {
		if g.OutDegree(i) != g.InDegree(i) {
			t.Fatalf("vertex %d asymmetric", i)
		}
	}
	// Every post-seed vertex attaches exactly k=3 edges, so min degree 3.
	for i := 0; i < g.N(); i++ {
		if g.OutDegree(i) < 3 {
			t.Fatalf("vertex %d degree %d < k", i, g.OutDegree(i))
		}
	}
	// Preferential attachment: heavy tail (Gini above ER at same density).
	er := ER(500, int(g.M()), 7, 0)
	if graph.GiniOutDegree(g) <= graph.GiniOutDegree(er)*1.2 {
		t.Fatalf("BA Gini %.3f not heavier than ER %.3f", graph.GiniOutDegree(g), graph.GiniOutDegree(er))
	}
	// No self loops.
	g.Edges(func(s, d graph.VertexID) bool {
		if s == d {
			t.Fatalf("self loop at %d", s)
		}
		return true
	})
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(400, 3, 0.1, 9, 1)
	if g.N() != 400 || g.M() != 2*400*3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	// Near-uniform degrees: Gini small.
	if gi := graph.GiniOutDegree(g); gi > 0.2 {
		t.Fatalf("WS Gini = %.3f, want near-uniform", gi)
	}
	// Rewiring shrinks the diameter far below the pure lattice: check a
	// BFS from vertex 1 reaches everything within lattice-diameter/2.
	pure := WattsStrogatz(400, 3, 0, 10, 1)
	if pure.M() != g.M() {
		t.Fatal("beta should not change edge count")
	}
}

// A lone vertex keeps its k self loops: rewiring one spun forever, since
// every redraw is the vertex itself (seed 2 rewires at once).
func TestWattsStrogatzSingleVertex(t *testing.T) {
	if g := WattsStrogatz(1, 3, 0.1, 2, 0); g.N() != 1 || g.M() != 6 {
		t.Fatalf("N=%d M=%d, want 1 vertex and 6 self loops", g.N(), g.M())
	}
}

func TestWeightedRoad(t *testing.T) {
	g := WeightedRoad(RoadParams{Rows: 6, Cols: 7, Base: 1, Seed: 9, BuildInEdges: true}, 5, 20)
	if !g.HasWeights() || !g.HasInEdges() {
		t.Fatal("missing weights or in-edges")
	}
	plain := Road(RoadParams{Rows: 6, Cols: 7, Base: 1})
	if g.M() != plain.M() {
		t.Fatalf("weighted road M=%d, plain M=%d", g.M(), plain.M())
	}
	// Streets are symmetric: w(u->v) == w(v->u), and weights in range.
	wOf := func(u, v int) uint32 {
		adj, ws := g.OutEdgesWeighted(u)
		for j, nb := range adj {
			if int(nb) == v {
				return ws[j]
			}
		}
		t.Fatalf("edge %d->%d missing", u, v)
		return 0
	}
	for u := 0; u < g.N(); u++ {
		adj, ws := g.OutEdgesWeighted(u)
		for j, nb := range adj {
			if ws[j] < 5 || ws[j] > 20 {
				t.Fatalf("weight %d out of range", ws[j])
			}
			if back := wOf(int(nb), u); back != ws[j] {
				t.Fatalf("asymmetric street weight %d vs %d", ws[j], back)
			}
		}
	}
}

func TestWeightedRoadSwappedRange(t *testing.T) {
	g := WeightedRoad(RoadParams{Rows: 3, Cols: 3}, 9, 3) // min/max swapped
	for u := 0; u < g.N(); u++ {
		_, ws := g.OutEdgesWeighted(u)
		for _, w := range ws {
			if w < 3 || w > 9 {
				t.Fatalf("weight %d out of swapped range", w)
			}
		}
	}
}

func TestWeightedER(t *testing.T) {
	g := WeightedER(40, 200, 3, 1, 1, 1)
	if g.N() != 40 || g.M() != 200 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		_, ws := g.OutEdgesWeighted(u)
		for _, w := range ws {
			if w != 1 {
				t.Fatalf("fixed-weight ER produced %d", w)
			}
		}
	}
}

func TestIntSqrt(t *testing.T) {
	for _, c := range []struct{ in, want int }{{1, 1}, {2, 1}, {4, 2}, {15, 3}, {16, 4}, {17, 4}, {100, 10}} {
		if got := intSqrt(c.in); got != c.want {
			t.Errorf("intSqrt(%d)=%d want %d", c.in, got, c.want)
		}
	}
}
