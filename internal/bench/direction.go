package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
)

func init() {
	register(Experiment{
		ID:    "direction",
		Title: "direction model: push vs pull vs adaptive per-superstep transport on a scale-free RMAT graph",
		Run:   runDirection,
	})
}

// directionRow is one (app, direction) cell of the comparison,
// serialised into results/BENCH_direction.json.
type directionRow struct {
	App       string `json:"app"`
	Direction string `json:"direction"`
	MeanNS    int64  `json:"mean_ns"`
	MarginNS  int64  `json:"margin_ns"`
	Reps      int    `json:"reps"`
	// Messages and Supersteps pin the fingerprint-parity claim in the
	// recorded artifact: all three directions of one app must agree.
	Messages   uint64 `json:"messages"`
	Supersteps int    `json:"supersteps"`
	// PullSteps counts the supersteps that ran the pull transport
	// (= Supersteps for pull, 0 for push) and Switches the adaptive
	// direction changes.
	PullSteps int `json:"pull_steps"`
	Switches  int `json:"switches"`
}

type directionReport struct {
	Experiment string         `json:"experiment"`
	Graph      string         `json:"graph"`
	Vertices   int            `json:"vertices"`
	Edges      uint64         `json:"edges"`
	Threshold  float64        `json:"direction_threshold"`
	Rows       []directionRow `json:"rows"`
}

// runDirection measures the three direction modes on the RMAT stand-in
// ("wiki", the paper's scale-free graph) for the broadcast-only
// evaluation apps, checks the fingerprint-parity invariant along the
// way, and prints the comparison as JSON (recorded as
// results/BENCH_direction.json by scripts/direction_smoke.sh).
func runDirection(o *Options, w io.Writer) error {
	const graphName = "wiki"
	g, err := o.Graph(graphName)
	if err != nil {
		return err
	}
	rep := &directionReport{
		Experiment: "direction",
		Graph:      graphName,
		Vertices:   g.N(),
		Edges:      g.M(),
		Threshold:  core.AdaptiveThreshold,
	}
	runs := []struct {
		app string
		run func(cfg core.Config) (core.Report, error)
	}{
		{"PageRank", func(cfg core.Config) (core.Report, error) {
			_, r, err := algorithms.PageRank(g, cfg, o.PRRounds)
			return r, err
		}},
		{"Hashmin", func(cfg core.Config) (core.Report, error) {
			_, r, err := algorithms.Hashmin(g, cfg)
			return r, err
		}},
		{"SSSP", func(cfg core.Config) (core.Report, error) {
			_, r, err := algorithms.SSSP(g, cfg, o.SSSPSource)
			return r, err
		}},
	}
	for _, app := range runs {
		var pushFP string
		for _, dir := range []core.Direction{core.DirectionPush, core.DirectionPull, core.DirectionAdaptive} {
			cfg := o.engineConfig(core.Config{Combiner: core.CombinerSpin})
			cfg.Direction = dir
			var last core.Report
			m, err := measureIPFunc(o, func() (core.Report, error) {
				r, err := app.run(cfg)
				last = r
				return r, err
			})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", app.app, dir, err)
			}
			fp := last.Fingerprint()
			if dir == core.DirectionPush {
				pushFP = fp
			} else if fp != pushFP {
				return fmt.Errorf("%s: %v fingerprint diverged from push", app.app, dir)
			}
			row := directionRow{
				App: app.app, Direction: dir.String(),
				MeanNS: int64(m.Mean), MarginNS: int64(m.Margin), Reps: m.Reps,
				Messages: last.TotalMessages, Supersteps: last.Supersteps,
			}
			for _, s := range last.Steps {
				if s.Direction == core.DirectionPull {
					row.PullSteps++
				}
				if s.DirectionSwitched {
					row.Switches++
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "# %-9s %-9s mean=%.3fms pull-steps=%d switches=%d msgs=%d\n",
			r.App, r.Direction, float64(r.MeanNS)/1e6, r.PullSteps, r.Switches, r.Messages)
	}
	return nil
}
