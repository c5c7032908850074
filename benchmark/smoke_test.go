package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"ipregel/internal/service"
)

// TestMain lets the test binary stand in for the benchmark binary when
// service_mixed starts its load generator as a child of itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--loadgen" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, nil))
	}
	os.Exit(m.Run())
}

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCode holds BENCHMARK.json and the benchmark's own
// tables equal: names, units, directions, bounds, workloads and reasons.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", c.PerLayer, perLayer)
	}
	setup := false
	for _, d := range c.EndToEnd {
		setup = setup || d == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// smoke runs one workload at the smoke scale in this process and returns
// its result line.
func smoke(t *testing.T, name string, seed string, trace string) outcome {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", name, "--seed", seed, "--seconds", "1", "--trace", trace,
		"--scale", "smoke", "--reps", "1", "--out", t.TempDir()}, &stdout, &stderr, nil)
	if code != 0 {
		t.Fatalf("%s seed %s trace %s: exit %d\n%s", name, seed, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: result %+v", name, res)
	}
	return res
}

func checkNames(t *testing.T, name string, res outcome, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d defined", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or in unit %q, want %q", name, d.Name, v.Unit, d.Unit)
		}
	}
}

// exactCounts are the per-layer metrics that must repeat exactly for one
// seed and change with another.
var exactCounts = []string{"core.supersteps", "core.messages", "core.vertices_run", "core.pull_steps",
	"service.jobs_sent", "graphio.file_bytes"}

// TestSmoke runs every workload on tiny inputs, both passes, and checks
// the emitted names and units against the tables, that every end-to-end
// metric is non-zero, and that the exact counts are functions of the seed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := smoke(t, w.Name, "1", "0")
			checkNames(t, w.Name, res, endToEnd)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, name, v.Value)
				}
			}
			first, again, other := smoke(t, w.Name, "1", "1"), smoke(t, w.Name, "1", "1"), smoke(t, w.Name, "2", "1")
			checkNames(t, w.Name, first, perLayer)
			changed := false
			for _, name := range exactCounts {
				if first.Metrics[name] != again.Metrics[name] {
					t.Errorf("%s: %s is %v then %v for the same seed", w.Name, name, first.Metrics[name].Value, again.Metrics[name].Value)
				}
				changed = changed || first.Metrics[name] != other.Metrics[name]
			}
			// PageRank's counts are fixed by |V|, |E| and the round count, and
			// the road grid is the same for every seed; elsewhere the counts
			// follow the generated graph.
			switch w.Name {
			case "hashmin_rmat", "load_sssp_mmap", "service_mixed":
				if !changed {
					t.Errorf("%s: no exact count changed with the seed", w.Name)
				}
			}
		})
	}
}

// TestVerifyCacheHitWithoutOriginal: a repeat served from the cache whose
// original was refused has nothing to be compared with; that is one failed
// job, not a crash.
func TestVerifyCacheHitWithoutOriginal(t *testing.T) {
	refused := &svcJob{repeatOf: -1}
	refused.Status = http.StatusTooManyRequests
	hit := &svcJob{repeatOf: 0}
	hit.Status, hit.Terminal = http.StatusOK, true
	hit.View = service.JobView{ID: "j2", State: service.StateDone, Cached: true, Result: &service.Result{}}
	jobs := []*svcJob{refused, hit}
	if err := refused.verify(jobs); err == nil {
		t.Error("a job refused with 429 verified")
	}
	if err := hit.verify(jobs); err == nil {
		t.Error("a cache hit whose original has no result verified")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 209)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 95); err != nil || v != 199 {
		t.Errorf("p95 of 1..209 = %v, %v; want 199 with ten samples beyond", v, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples has nine beyond it and was not refused")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 209 samples was not refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
