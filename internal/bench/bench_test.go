package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipregel/internal/core"
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
		"mem-versions", "mem-projection", "mem-backend", "speedups",
		"ablation-combiner",
		"ablation-inbox", "ablation-balance",
		"ablation-mirroring", "shm-baseline", "active-curves",
		"direction",
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
	runExp(t, "fig8", "iPregel single-node reference", "Pregel+  1 node", "lead change", "single-node speedup")
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

func TestMemBackend(t *testing.T) {
	out := runExp(t, "mem-backend", `"backend": "flat"`, `"backend": "compressed"`, `"backend": "mmap"`, `"backend": "mmap-out-only"`, "evictable")
	// The headline claim the recorded results/BENCH_membackend.json makes:
	// each tier strictly undercuts the previous one on resident heap, and
	// a mapped graph nothing has pulled from undercuts one that serves
	// in-edges.
	var heaps []uint64
	for _, line := range strings.Split(out, "\n") {
		var h uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(line), `"heap_bytes": %d,`, &h); err == nil {
			heaps = append(heaps, h)
		}
	}
	if len(heaps) != 4 {
		t.Fatalf("expected 4 heap_bytes rows, got %v", heaps)
	}
	if !(heaps[1] < heaps[0] && heaps[2] < heaps[1] && heaps[3] < heaps[2]) {
		t.Fatalf("backend heap bytes not strictly decreasing: flat=%d compressed=%d mmap=%d mmap-out-only=%d", heaps[0], heaps[1], heaps[2], heaps[3])
	}
}

// TestBackendOption runs one timing experiment under each graph backend:
// the Options.Backend plumbing must produce working engines (parity of
// the results themselves is covered by internal/algorithms).
func TestBackendOption(t *testing.T) {
	for _, backend := range []string{"flat", "compressed", "mmap"} {
		o := quickOpts()
		o.Backend = backend
		var sb strings.Builder
		if err := Run("mem-versions", o, &sb); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if err := o.Close(); err != nil {
			t.Fatalf("%s: close: %v", backend, err)
		}
	}
}

func TestSpeedups(t *testing.T) {
	runExp(t, "speedups", "median speedup", "PageRank", "SSSP")
}

func TestAblations(t *testing.T) {
	runExp(t, "ablation-combiner", "with combiner", "no combiner")
	runExp(t, "ablation-balance", "imbalance=", "bypass=true")
	runExp(t, "ablation-mirroring", "no mirroring", "mirror deg>=64")
}

// TestAblationInbox smoke-runs the four combiners and checks the CSV
// lands with one row per combiner.
func TestAblationInbox(t *testing.T) {
	o := quickOpts()
	o.CSVDir = t.TempDir()
	var sb strings.Builder
	if err := Run("ablation-inbox", o, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, s := range []string{"mutex", "spinlock", "atomic", "broadcast"} {
		if !strings.Contains(out, s) {
			t.Fatalf("output missing %q:\n%s", s, out)
		}
	}
	data, err := os.ReadFile(filepath.Join(o.CSVDir, "ablation-inbox.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+4 { // header + 4 combiners
		t.Fatalf("csv has %d lines, want %d:\n%s", len(lines), 1+4, data)
	}
	if lines[0] != "combiner,mean_ns,margin_ns" {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestActiveCurves(t *testing.T) {
	out := runExp(t, "active-curves", "PageRank on wiki", "SSSP on usa", "paper §7.1.4 expects")
	if !strings.Contains(out, "flat") || !strings.Contains(out, "bell") {
		t.Fatalf("curve classifications missing:\n%s", out)
	}
}

func TestClassifyCurve(t *testing.T) {
	cases := []struct {
		ran  []int64
		want string
	}{
		{[]int64{100, 100, 100, 100}, "flat"},
		{[]int64{100, 100, 40, 5, 0}, "decreasing"},
		{[]int64{100, 1, 5, 20, 8, 2}, "bell"},
		{[]int64{10}, "too short"},
	}
	for _, c := range cases {
		if got := classifyCurve(c.ran); !strings.HasPrefix(got, c.want) {
			t.Errorf("classifyCurve(%v) = %q, want prefix %q", c.ran, got, c.want)
		}
	}
}

func TestShmBaseline(t *testing.T) {
	runExp(t, "shm-baseline", "femtograph-style", "peak queue msgs", "idle framework memory")
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
