package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
	"ipregel/internal/memmodel"
	"ipregel/internal/stats"
)

// quickOpts shrinks every experiment to smoke-test size: tiny graphs, two
// repetitions, coarse margins.
func quickOpts() *Options {
	return (&Options{
		Divisor:  2048,
		Quick:    true,
		PRRounds: 5,
		Protocol: stats.Protocol{MinReps: 1, MaxReps: 1, TargetRelMargin: 1},
	}).withDefaults()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "fig7", "fig8", "fig9",
		"mem-versions", "mem-projection", "ablation-inbox",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
	// sorted
	exps := Experiments()
	for i := 1; i < len(exps); i++ {
		if exps[i-1].ID >= exps[i].ID {
			t.Fatal("Experiments not sorted")
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := Run("nope", quickOpts(), &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func runExp(t *testing.T, id string, mustContain ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := Run(id, quickOpts(), &sb); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := sb.String()
	for _, s := range mustContain {
		if !strings.Contains(out, s) {
			t.Fatalf("%s output missing %q:\n%s", id, s, out)
		}
	}
	return out
}

func TestTable1(t *testing.T) {
	runExp(t, "table1", "Wikipedia", "USA Road network", "paper |V|")
}

func TestTable2(t *testing.T) {
	runExp(t, "table2", "Twitter (MPI)", "Friendster", "8GB")
}

func TestFig7(t *testing.T) {
	out := runExp(t, "fig7", "wiki graph", "usa graph", "PageRank", "Hashmin", "SSSP", "fastest=")
	// PageRank admits 3 versions, Hashmin/SSSP 6 each, on 2 graphs.
	if n := strings.Count(out, "spinlock+bypass"); n < 4 {
		t.Fatalf("expected bypass rows, got %d", n)
	}
}

func TestFig8(t *testing.T) {
	runExp(t, "fig8", "iPregel single-node reference", "Pregel+  1 node", "lead change", "single-node speedup", "median speedup")
}

// TestSpeedups checks fig8's closing line against its own cells: the
// median and minimum it reports are those of the per-cell single-node
// speedups (printed at two decimals, so the median of an even count may
// differ by one rounding step).
func TestSpeedups(t *testing.T) {
	out := runExp(t, "fig8", "median speedup", "PageRank", "SSSP")
	var cells []float64
	var median, minimum float64
	found := false
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		var x float64
		if _, err := fmt.Sscanf(line, "single-node speedup iPregel over Pregel+: %fx", &x); err == nil {
			cells = append(cells, x)
		}
		if _, err := fmt.Sscanf(line, "median speedup: %fx (paper: 6.5x); minimum: %fx", &median, &minimum); err == nil {
			found = true
		}
	}
	if !found || len(cells) == 0 {
		t.Fatalf("fig8: no speedup summary or no per-cell speedups:\n%s", out)
	}
	if minimum <= 0 || minimum > median {
		t.Fatalf("fig8 speedups: median %.2fx, minimum %.2fx", median, minimum)
	}
	if got := slices.Min(cells); got != minimum {
		t.Fatalf("fig8 minimum speedup %.2fx, cells give %.2fx", minimum, got)
	}
	if got := stats.Median(cells); math.Abs(got-median) > 0.01+1e-9 {
		t.Fatalf("fig8 median speedup %.2fx, cells give %.2fx", median, got)
	}
}

func TestFig9(t *testing.T) {
	runExp(t, "fig9", "breaking point", "linear projection", "analytic model at full Twitter scale")
}

func TestMemVersions(t *testing.T) {
	out := runExp(t, "mem-versions", "mutex", "spinlock", "broadcast+bypass")
	_ = out
}

func TestMemProjection(t *testing.T) {
	runExp(t, "mem-projection", "iPregel (pull, in-only)", "Pregel+ (32 procs)", "Giraph (modelled)", "Friendster")
}

// TestMemBackend holds the heap ordering the removed mem-backend
// experiment recorded (EXPERIMENTS.md) on the graph it recorded it on,
// the wiki preset at the quick divisor: flat > compressed > mmap with
// in-edges > mmap out-only. Only the heap counts: the mapped pages are
// file-backed and evictable.
func TestMemBackend(t *testing.T) {
	build := func() *graph.Graph {
		g, err := gen.ByName("wiki", gen.PresetParams{Divisor: quickOpts().Divisor, BuildInEdges: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	compress := func() *graph.Graph {
		cg, err := build().Compress()
		if err != nil {
			t.Fatal(err)
		}
		return cg
	}
	path := filepath.Join(t.TempDir(), "wiki.ipg3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteBinary(f, compress()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped := func(inEdges bool) uint64 {
		var m *graphio.Mapped
		heap := memmodel.MeasureRetained(func() any {
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
	flat := memmodel.MeasureRetained(func() any { return build() })
	comp := memmodel.MeasureRetained(func() any { return compress() })
	mmap, outOnly := mapped(true), mapped(false)
	if !(comp < flat && mmap < comp && outOnly < mmap) {
		t.Fatalf("backend heap bytes not strictly decreasing: flat=%d compressed=%d mmap=%d mmap-out-only=%d", flat, comp, mmap, outOnly)
	}
}

// TestAblationInbox smoke-runs the three combination module versions and
// checks the CSV lands with one row per version.
func TestAblationInbox(t *testing.T) {
	o := quickOpts()
	o.CSVDir = t.TempDir()
	var sb strings.Builder
	if err := Run("ablation-inbox", o, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, s := range []string{"mutex", "spinlock", "broadcast"} {
		if !strings.Contains(out, s) {
			t.Fatalf("output missing %q:\n%s", s, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(o.CSVDir, "ablation-inbox.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+3 { // header + 3 versions
		t.Fatalf("csv has %d lines, want %d:\n%s", len(lines), 1+3, data)
	}
	if lines[0] != "combiner,mean_ns,margin_ns" {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestCSVOutput(t *testing.T) {
	o := quickOpts()
	o.CSVDir = t.TempDir()
	var sb strings.Builder
	for _, id := range []string{"fig7", "fig8", "fig9"} {
		if err := Run(id, o, &sb); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		data, err := os.ReadFile(filepath.Join(o.CSVDir, id+".csv"))
		if err != nil {
			t.Fatalf("%s csv: %v", id, err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 3 {
			t.Fatalf("%s csv has only %d lines", id, len(lines))
		}
		// every row has the header's field count
		fields := strings.Count(lines[0], ",")
		for i, l := range lines[1:] {
			if strings.Count(l, ",") != fields {
				t.Fatalf("%s csv row %d malformed: %q", id, i+1, l)
			}
		}
	}
}

func TestSaveCSVValidation(t *testing.T) {
	o := quickOpts()
	o.CSVDir = t.TempDir()
	err := saveCSV(o, "bad", []string{"a", "b"}, [][]string{{"only-one"}})
	if err == nil {
		t.Fatal("mismatched row accepted")
	}
	// no dir configured: silently skipped
	o2 := quickOpts()
	if err := saveCSV(o2, "skip", []string{"a"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := (&Options{}).withDefaults()
	if o.Divisor != 64 || o.PRRounds != 30 || o.SSSPSource != 2 {
		t.Fatalf("defaults: %+v", o)
	}
	if len(o.NodeCounts) != 5 || o.NodeCounts[4] != 16 {
		t.Fatalf("node counts: %v", o.NodeCounts)
	}
	if o.Protocol.MinReps != 5 {
		t.Fatalf("protocol: %+v", o.Protocol)
	}
	q := (&Options{Quick: true}).withDefaults()
	if q.Protocol.MinReps != 2 {
		t.Fatalf("quick protocol: %+v", q.Protocol)
	}
}

func TestGraphCaching(t *testing.T) {
	o := quickOpts()
	a, err := o.Graph("wiki")
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Graph("wiki")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("graph not cached")
	}
	if _, err := o.Graph("bogus"); err == nil {
		t.Fatal("bogus graph accepted")
	}
}

func TestVersionsForAndBest(t *testing.T) {
	o := quickOpts()
	as := apps(o)
	if len(versionsFor(as[0])) != 3 { // PageRank
		t.Fatal("PageRank should admit 3 versions")
	}
	if len(versionsFor(as[1])) != 6 {
		t.Fatal("Hashmin should admit 6 versions")
	}
	if bestVersionFor(as[0]).Direction != core.DirectionPull {
		t.Fatal("PageRank best version should be broadcast")
	}
	best := bestVersionFor(as[2])
	if !best.SelectionBypass {
		t.Fatal("SSSP best version should use bypass")
	}
}
