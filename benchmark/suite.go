package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded with every result: numbers from two machines,
// or two Go versions, are not comparable.
type environment struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Kernel     string   `json:"kernel"`
	Caches     []string `json:"caches"`
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func currentEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // a driver's checkout is not a git repository
		Kernel:     readTrimmed("/proc/sys/kernel/osrelease"),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // the pattern is well-formed
	for _, d := range dirs {
		env.Caches = append(env.Caches, fmt.Sprintf("L%s %s %s",
			readTrimmed(filepath.Join(d, "level")), readTrimmed(filepath.Join(d, "type")), readTrimmed(filepath.Join(d, "size"))))
	}
	return env
}

// child runs one workload for one pass in a process of its own, so heap
// and collector state never leak from one workload into the next. The
// child's report is forwarded; its last line is the result.
func child(o options, name string, seed int64, trace int, stdout, stderr io.Writer) (outcome, error) {
	var res outcome
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe,
		"--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
		"--scale", o.scale, "--reps", strconv.Itoa(o.reps), "--out", o.out)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run() // waits for the child to end
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	if stdout != nil {
		fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, fmt.Errorf("%s: last line is not a result: %q", name, last)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	return res, nil
}

type workloadResult struct {
	Why       string           `json:"why"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

type suiteResult struct {
	Environment environment                `json:"environment"`
	Seed        int64                      `json:"seed"`
	Seconds     float64                    `json:"seconds"`
	Scale       string                     `json:"scale"`
	Workloads   map[string]*workloadResult `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// suite runs every workload, an untraced pass for the end-to-end metrics
// and then a traced pass for the per-layer ones, and writes result.json.
func suite(o options, stdout, stderr io.Writer) error {
	var passes []int
	switch o.pass {
	case "untraced":
		passes = []int{0}
	case "traced":
		passes = []int{1}
	case "both":
		passes = []int{0, 1}
	default:
		return fmt.Errorf("unknown -pass %q (untraced | traced | both)", o.pass)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	result := suiteResult{Environment: currentEnvironment(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Workloads: map[string]*workloadResult{}}
	failures := 0
	for _, trace := range passes {
		for _, w := range workloads {
			res, err := child(o, w.Name, o.seed, trace, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				failures++
			}
			wr := result.Workloads[w.Name]
			if wr == nil {
				wr = &workloadResult{Why: w.Why}
				result.Workloads[w.Name] = wr
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if trace == 0 {
				wr.EndToEnd = res.Metrics
			} else {
				wr.PerLayer = res.Metrics
			}
		}
	}
	path := filepath.Join(o.out, "result.json")
	if err := writeJSON(path, result); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if failures > 0 {
		return fmt.Errorf("%d workload runs failed", failures)
	}
	return nil
}

// selfcheck measures how far two sets of runs of the same code disagree,
// the way a driver judges this benchmark: each set runs every workload
// once per seed; a metric's spread is the interquartile range of a set's
// values over their median, its drift how much worse the second set's
// median is than the first's. Either beyond the metric's bound fails
// (set-up time is exempt from the spread, not from the drift); a spread
// above a third of the bound is flagged "wide".
func selfcheck(o options, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	failed := 0
	for s := range sets {
		sets[s] = map[key][]float64{}
		for _, w := range workloads {
			for k := 0; k < o.seeds; k++ {
				res, err := child(o, w.Name, o.seed+int64(k), 0, nil, stderr)
				if err != nil { // the other runs still say how steady the rest is
					fmt.Fprintln(stderr, "benchmark:", err)
					failed++
					continue
				}
				for name, v := range res.Metrics {
					sets[s][key{w.Name, name}] = append(sets[s][key{w.Name, name}], v.Value)
				}
				fmt.Fprintf(stderr, "selfcheck: set %d %s seed %d done\n", s+1, w.Name, o.seed+int64(k))
			}
		}
	}
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Q1       float64 `json:"q1"`
		Median   float64 `json:"median"`
		Q3       float64 `json:"q3"`
		Spread1  float64 `json:"spread_set1"`
		Spread2  float64 `json:"spread_set2"`
		Drift    float64 `json:"drift"`
		Bound    float64 `json:"bound"`
		Verdict  string  `json:"verdict"`
	}
	var rows []row
	fmt.Fprintf(stdout, "%-20s %-14s %12s %12s %12s %8s %8s %8s %6s %s\n",
		"workload", "metric", "q1", "median", "q3", "spread1", "spread2", "drift", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.Name, d.Name}], sets[1][key{w.Name, d.Name}]
			q1, q2, q3 := quartiles(a)
			rw := row{Workload: w.Name, Metric: d.Name, Q1: q1, Median: q2, Q3: q3,
				Spread1: spread(a), Spread2: spread(b), Bound: d.Bound, Verdict: "ok"}
			if q2 != 0 {
				rw.Drift = (median(b) - q2) / q2
			}
			if d.Better == "higher" {
				rw.Drift = -rw.Drift
			}
			worst := max(rw.Spread1, rw.Spread2)
			if d.Name == "setup_s" {
				worst = 0
			}
			switch {
			case worst > d.Bound || rw.Drift > d.Bound:
				rw.Verdict = "FAIL"
				failed++
			case worst > d.Bound/3:
				rw.Verdict = "wide"
			}
			rows = append(rows, rw)
			fmt.Fprintf(stdout, "%-20s %-14s %12.6g %12.6g %12.6g %8.4f %8.4f %+8.4f %6.2f %s\n",
				rw.Workload, rw.Metric, rw.Q1, rw.Median, rw.Q3, rw.Spread1, rw.Spread2, rw.Drift, rw.Bound, rw.Verdict)
		}
	}
	if err := writeJSON(filepath.Join(o.out, "selfcheck.json"), rows); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed or metrics disagreed between two sets of runs of the same code by more than their bound", failed)
	}
	return nil
}
