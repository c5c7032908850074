package bench

import (
	"fmt"
	"io"

	"ipregel/internal/core"
	"ipregel/internal/plot"
)

func init() {
	register(Experiment{
		ID:    "active-curves",
		Title: "§7.1.4: the three active-vertex evolutions — flat (PageRank), decreasing (Hashmin), bell (SSSP)",
		Run:   runActiveCurves,
	})
}

// runActiveCurves evidences the workload characterisation the paper's
// version analysis rests on: "constantly all active in PageRank,
// decreasing from all active to none in Hashmin and in SSSP it starts
// with one active vertex typically followed by a bell evolution". It runs
// each application once on the wiki stand-in (SSSP additionally on the
// road stand-in, where the bell is much wider) and plots the per-superstep
// executed-vertex counts.
func runActiveCurves(o *Options, w io.Writer) error {
	type curve struct {
		app       string
		graphName string
		cfg       core.Config
	}
	curves := []curve{
		{"PageRank", "wiki", core.Config{Direction: core.DirectionPull}},
		{"Hashmin", "wiki", core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}},
		{"SSSP", "wiki", core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}},
		{"SSSP", "usa", core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}},
	}
	for _, c := range curves {
		g, err := o.Graph(c.graphName)
		if err != nil {
			return err
		}
		var app appSpec
		for _, a := range apps(o) {
			if a.name == c.app {
				app = a
			}
		}
		rep, err := app.runIP(o, g, c.cfg)
		if err != nil {
			return err
		}
		ran := rep.RanSeries()
		xs := make([]float64, len(ran))
		ys := make([]float64, len(ran))
		for i, r := range ran {
			xs[i] = float64(i)
			ys[i] = float64(r)
		}
		fmt.Fprintf(w, "\n%s on %s (%d supersteps; superstep 0 runs all %d vertices by definition):\n",
			c.app, c.graphName, rep.Supersteps, g.N())
		fmt.Fprint(w, plot.Lines("  vertices run per superstep", []plot.Series{{Name: c.app, X: xs, Y: ys}}, 60, 10, false))
		shape := classifyCurve(ran)
		fmt.Fprintf(w, "  shape: %s\n", shape)
	}
	fmt.Fprintln(w, "\npaper §7.1.4 expects: PageRank flat, Hashmin decreasing, SSSP bell.")
	return nil
}

// classifyCurve labels a ran-series (ignoring superstep 0, which always
// runs everything) as flat, decreasing, bell or other.
func classifyCurve(ran []int64) string {
	if len(ran) < 3 {
		return "too short"
	}
	body := ran[1:]
	peakIdx, peak := 0, int64(-1)
	for i, r := range body {
		if r > peak {
			peak, peakIdx = r, i
		}
	}
	first, last := body[0], body[len(body)-1]
	switch {
	case peak == first && first == ran[0] && last >= first*9/10:
		return "flat (all vertices active throughout)"
	case peakIdx == 0 && last <= first/10:
		return "decreasing (from all active to none)"
	case peakIdx > 0 && peakIdx < len(body)-1 && peak > first && peak > last:
		return "bell (grows from the source, then shrinks)"
	default:
		return "other"
	}
}
