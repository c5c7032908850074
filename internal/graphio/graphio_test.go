package graphio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"ipregel/internal/graph"
)

func edgeSet(g *graph.Graph) map[[2]graph.VertexID]int {
	m := map[[2]graph.VertexID]int{}
	g.Edges(func(s, d graph.VertexID) bool {
		m[[2]graph.VertexID{s, d}]++
		return true
	})
	return m
}

func sameEdges(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	ea, eb := edgeSet(a), edgeSet(b)
	for k, v := range ea {
		if eb[k] != v {
			t.Fatalf("edge %v count %d vs %d", k, v, eb[k])
		}
	}
}

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var b graph.Builder
	b.ForceN = n
	b.SetBase(0)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	return b.MustBuild()
}

func TestEdgeListRead(t *testing.T) {
	in := `# a comment
% another comment

1 2
1	3
2 3 42 999
3 4
4 1
`
	g, err := Read(strings.NewReader(in), FormatEdgeList, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Base() != 1 {
		t.Fatalf("Base = %d, want 1", g.Base())
	}
}

func TestEdgeListBadLine(t *testing.T) {
	if _, err := Read(strings.NewReader("1 x\n"), FormatEdgeList, Options{}); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := Read(strings.NewReader("1\n"), FormatEdgeList, Options{}); err == nil {
		t.Fatal("expected parse error for missing dst")
	}
}

func TestKONECTDirected(t *testing.T) {
	in := "% asym unweighted\n% more meta\n1 2\n2 3\n"
	g, err := Read(strings.NewReader(in), FormatKONECT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M=%d want 2", g.M())
	}
}

func TestKONECTSymmetricHeader(t *testing.T) {
	in := "% sym unweighted\n1 2\n"
	g, err := Read(strings.NewReader(in), FormatKONECT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("sym header should double edges, M=%d", g.M())
	}
}

func TestDIMACSRead(t *testing.T) {
	in := `c USA-road-d style file
p sp 4 5
a 1 2 10
a 1 3 20
a 2 3 5
a 3 4 1
a 4 1 9
`
	g, err := Read(strings.NewReader(in), FormatDIMACS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Base() != 1 {
		t.Fatalf("DIMACS base = %d, want 1", g.Base())
	}
}

func TestDIMACSErrors(t *testing.T) {
	cases := map[string]string{
		"arc before p":    "a 1 2 3\n",
		"no problem line": "c hi\n",
		"duplicate p":     "p sp 1 0\np sp 1 0\n",
		"count mismatch":  "p sp 2 2\na 1 2 1\n",
		"unknown record":  "p sp 1 0\nz 1\n",
		"bad arc":         "p sp 2 1\na x y z\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in), FormatDIMACS, Options{}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFormatRoundTrips(t *testing.T) {
	g := randomGraph(7, 30, 120)
	for _, f := range []Format{FormatEdgeList, FormatKONECT, FormatDIMACS, FormatBinary} {
		t.Run(f.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, g, f); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := Read(&buf, f, Options{})
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			sameEdges(t, g, got)
		})
	}
}

// Property: binary round-trip preserves any random graph exactly,
// including isolated vertices and base offsets.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16, baseRaw uint8) bool {
		n := int(nRaw%60) + 1
		m := int(mRaw % 300)
		base := graph.VertexID(baseRaw % 5)
		rng := rand.New(rand.NewSource(seed))
		var b graph.Builder
		b.ForceN = n
		b.SetBase(base)
		for i := 0; i < m; i++ {
			b.AddEdge(base+graph.VertexID(rng.Intn(n)), base+graph.VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		var buf bytes.Buffer
		if WriteBinary(&buf, g) != nil {
			return false
		}
		if uint64(buf.Len()) != BinarySizeBytes(g.N(), g.M()) {
			return false
		}
		got, err := ReadBinary(&buf, Options{})
		if err != nil {
			return false
		}
		if got.N() != g.N() || got.M() != g.M() || got.Base() != g.Base() {
			return false
		}
		ea, eb := edgeSet(g), edgeSet(got)
		for k, v := range ea {
			if eb[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX0123456789012345678")), Options{}); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestBinaryTruncated(t *testing.T) {
	g := randomGraph(3, 10, 40)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{2, 10, 30, len(data) - 3} {
		if _, err := ReadBinary(bytes.NewReader(data[:cut]), Options{}); err == nil {
			t.Fatalf("truncation at %d: expected error", cut)
		}
	}
}

func TestReadWriteFile(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(11, 20, 60)
	for _, name := range []string{"g.txt", "g.gr", "g.tsv", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
		got, err := ReadFile(path, Options{})
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", name, err)
		}
		sameEdges(t, g, got)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.txt"), Options{}); !os.IsNotExist(err) {
		t.Fatalf("expected not-exist, got %v", err)
	}
}

func TestDetectFormat(t *testing.T) {
	for path, want := range map[string]Format{
		"a/usa.gr": FormatDIMACS, "wiki.tsv": FormatKONECT,
		"x.bin": FormatBinary, "plain.txt": FormatEdgeList, "noext": FormatEdgeList,
	} {
		if got := DetectFormat(path); got != want {
			t.Errorf("DetectFormat(%q) = %v, want %v", path, got, want)
		}
	}
	if s := Format(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown format String = %q", s)
	}
}

func TestReadLoadsWithInEdgesAndDedup(t *testing.T) {
	in := "1 2\n1 2\n2 1\n"
	g, err := Read(strings.NewReader(in), FormatEdgeList, Options{BuildInEdges: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("dedup M=%d want 2", g.M())
	}
	if !g.HasInEdges() {
		t.Fatal("in-edges not built")
	}
	if g.InDegree(0) != 1 {
		t.Fatalf("InDegree(0)=%d want 1", g.InDegree(0))
	}
}

func TestDIMACSWeighted(t *testing.T) {
	in := "c weighted\np sp 3 3\na 1 2 10\na 2 3 20\na 1 3 100\n"
	g, err := Read(strings.NewReader(in), FormatDIMACS, Options{KeepWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasWeights() {
		t.Fatal("weights dropped")
	}
	adj, ws := g.OutEdgesWeighted(0)
	if len(adj) != 2 {
		t.Fatalf("degree = %d", len(adj))
	}
	sum := ws[0] + ws[1]
	if sum != 110 {
		t.Fatalf("weights %v, want {10,100}", ws)
	}
}

func TestWeightedDIMACSRoundTrip(t *testing.T) {
	var wb graph.WeightedBuilder
	wb.SetBase(1)
	wb.AddEdge(1, 2, 7)
	wb.AddEdge(2, 3, 9)
	wb.AddEdge(3, 1, 11)
	g := wb.MustBuild()
	var buf bytes.Buffer
	if err := Write(&buf, g, FormatDIMACS); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, FormatDIMACS, Options{KeepWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		wa, wwa := g.OutEdgesWeighted(u)
		wb2, wwb := got.OutEdgesWeighted(u)
		if len(wa) != len(wb2) {
			t.Fatalf("degree mismatch at %d", u)
		}
		for j := range wa {
			if wa[j] != wb2[j] || wwa[j] != wwb[j] {
				t.Fatalf("edge mismatch at %d:%d", u, j)
			}
		}
	}
}

func TestEdgeListWeightedRoundTrip(t *testing.T) {
	var wb graph.WeightedBuilder
	wb.SetBase(1)
	wb.AddEdge(1, 2, 7)
	wb.AddEdge(2, 3, 1)
	g := wb.MustBuild()
	var buf bytes.Buffer
	if err := Write(&buf, g, FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, FormatEdgeList, Options{KeepWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	_, ws := got.OutEdgesWeighted(0)
	if ws[0] != 7 {
		t.Fatalf("edge-list weight round trip: %d", ws[0])
	}
}

func TestEdgeListWeighted(t *testing.T) {
	in := "1 2 5\n2 3\n"
	g, err := Read(strings.NewReader(in), FormatEdgeList, Options{KeepWeights: true, BuildInEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	_, ws := g.OutEdgesWeighted(0)
	if ws[0] != 5 {
		t.Fatalf("w = %d, want 5", ws[0])
	}
	_, ws = g.OutEdgesWeighted(1)
	if ws[0] != 1 {
		t.Fatalf("missing weight column should default to 1, got %d", ws[0])
	}
	if !g.HasInEdges() {
		t.Fatal("in-edges not built")
	}
}

func TestKeepWeightsValidation(t *testing.T) {
	if _, err := Read(strings.NewReader("1 2\n"), FormatEdgeList, Options{KeepWeights: true, Dedup: true}); err == nil {
		t.Fatal("KeepWeights+Dedup accepted")
	}
	if _, err := Read(strings.NewReader("% sym\n1 2\n"), FormatKONECT, Options{KeepWeights: true}); err == nil {
		t.Fatal("KeepWeights+KONECT accepted")
	}
}

// The IPG2 binary variant is self-describing: weights survive the round
// trip regardless of Options, and in-edges can be requested at load.
func TestBinaryWeightedRoundTrip(t *testing.T) {
	var wb graph.WeightedBuilder
	wb.SetBase(1)
	wb.BuildInEdges()
	wb.AddEdge(1, 2, 7)
	wb.AddEdge(2, 3, 9)
	wb.AddEdge(1, 3, 11)
	wb.AddEdge(3, 1, 13)
	g := wb.MustBuild()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()), Options{BuildInEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasWeights() || !got.HasInEdges() {
		t.Fatal("weighted binary lost weights or in-edges")
	}
	if got.M() != g.M() || got.Base() != 1 {
		t.Fatalf("M=%d base=%d", got.M(), got.Base())
	}
	for u := 0; u < g.N(); u++ {
		wa, wwa := g.OutEdgesWeighted(u)
		wb2, wwb := got.OutEdgesWeighted(u)
		for j := range wa {
			if wa[j] != wb2[j] || wwa[j] != wwb[j] {
				t.Fatalf("edge %d:%d mismatch", u, j)
			}
		}
	}
	// Truncated weights section errors cleanly.
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc), Options{}); err == nil {
		t.Fatal("truncated weighted binary accepted")
	}
}

func TestGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(21, 40, 160)
	for _, name := range []string{"g.gr.gz", "g.txt.gz", "g.bin.gz"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, g); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
		got, err := ReadFile(path, Options{})
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", name, err)
		}
		sameEdges(t, g, got)
	}
	// A .gz path containing garbage must error cleanly.
	bad := filepath.Join(dir, "bad.txt.gz")
	if err := os.WriteFile(bad, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad, Options{}); err == nil {
		t.Fatal("garbage gzip accepted")
	}
}

func TestDetectFormatGz(t *testing.T) {
	if DetectFormat("USA-road-d.USA.gr.gz") != FormatDIMACS {
		t.Fatal("gz-wrapped DIMACS not detected")
	}
}

// Robustness: arbitrary byte soup fed to any reader must produce an
// error or a valid graph — never a panic. This is the failure-injection
// counterpart of the round-trip properties.
func TestReadersNeverPanicOnGarbage(t *testing.T) {
	f := func(data []byte, formatRaw uint8) (ok bool) {
		format := Format(formatRaw % 4)
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %v input %q: %v", format, data, r)
				ok = false
			}
		}()
		g, err := Read(bytes.NewReader(data), format, Options{})
		if err == nil && g.Validate() != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Structured garbage: valid headers followed by corrupted bodies.
func TestReadersRejectCorruptedBodies(t *testing.T) {
	cases := []struct {
		format Format
		input  string
	}{
		{FormatDIMACS, "p sp 3 1\na 1 99 5\n"},        // arc out of declared range... accepted range check
		{FormatEdgeList, "1 2\n-3 4\n"},               // negative id
		{FormatEdgeList, "1 2\n3 4 5 6 7 oops\n"},     // trailing junk is ignored (weights/timestamps)
		{FormatKONECT, "% asym\nabc def\n"},           // non-numeric
		{FormatDIMACS, "p sp 2 1\na one two three\n"}, // non-numeric arc
	}
	for _, c := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%v %q panicked: %v", c.format, c.input, r)
				}
			}()
			g, err := Read(strings.NewReader(c.input), c.format, Options{})
			if err == nil {
				if verr := g.Validate(); verr != nil {
					t.Errorf("%v %q: accepted invalid graph: %v", c.format, c.input, verr)
				}
			}
		}()
	}
}

func TestVertexIDOverflow(t *testing.T) {
	if _, err := Read(strings.NewReader("1 99999999999\n"), FormatEdgeList, Options{}); err == nil {
		t.Fatal("expected 32-bit overflow error")
	}
}
