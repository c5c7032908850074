package bench

import (
	"fmt"
	"io"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/memmodel"
	"ipregel/internal/plot"
	"ipregel/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Fig. 9: iPregel max memory on PageRank as the synthetic Twitter size varies (breaking point + projection)",
		Run:   runFig9,
	})
}

// runFig9 reproduces §7.4.2–7.4.3: PageRank (pull combiner, the paper's
// choice for this experiment) over proportionally scaled synthetic
// Twitter graphs, from the smallest upward, recording the measured peak
// heap; a linear fit projects the footprint of the full graph, and the
// breaking point is the largest percentage that fits the scaled 8 GB
// budget. The paper measures 70% and projects 11 GB at 100%.
func runFig9(o *Options, w io.Writer) error {
	div := o.Divisor
	pcts := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	rounds := 5 // footprint peaks within the first supersteps; fewer rounds than the paper's 30 keeps the sweep fast
	if o.Quick {
		div *= 8
		pcts = []int{20, 40, 60, 80, 100}
	}
	budget := nodeMemoryBudgetBytes(div)
	fmt.Fprintf(w, "synthetic Twitter at 1/%d scale; memory budget scaled to %s (paper: 8GB)\n", div, memmodel.GB(budget))
	fmt.Fprintf(w, "%-6s %12s %12s %14s %14s  %s\n", "pct", "|V|", "|E|", "peak heap", "graph-only", "fits budget")

	var xs, ys []float64
	var csvRows [][]string
	breaking := 0
	for _, pct := range pcts {
		g := gen.Twitter(gen.PresetParams{Divisor: div, BuildInEdges: true}, pct)
		// The paper's pull-combiner PageRank uses the "in only" internals
		// (§3.2): in-adjacency plus out-degrees.
		inOnly, err := g.StripOutAdjacency()
		if err != nil {
			return err
		}
		nV, nE := g.N(), g.M()
		g = nil // release the out-adjacency: only the "in only" layout stays resident
		var runErr error
		peakAbs, baseline := memmodel.MeasurePeakHeap(func() {
			_, _, runErr = algorithms.PageRank(inOnly, o.engineConfig(core.Config{Direction: core.DirectionPull}), rounds)
		})
		if runErr != nil {
			return runErr
		}
		// The paper's process holds only the graph under test; this
		// harness may hold other cached graphs, so the comparable figure
		// is the run's allocation delta plus the graph itself.
		peak := peakAbs - baseline + inOnly.MemoryBytes()
		fits := memmodel.FitsBudget(peak, budget)
		if fits {
			breaking = pct
		}
		fmt.Fprintf(w, "%-6d %12d %12d %14s %14s  %v\n", pct, nV, nE, memmodel.GB(peak), memmodel.GB(inOnly.MemoryBytes()), fits)
		xs = append(xs, float64(pct))
		ys = append(ys, float64(peak))
		csvRows = append(csvRows, []string{itoa(int64(pct)), itoa(int64(nV)), utoa(nE), utoa(peak), btoa(fits)})
	}
	if err := saveCSV(o, "fig9", []string{"pct", "v", "e", "peak_heap_bytes", "fits_budget"}, csvRows); err != nil {
		return err
	}
	ysGB := make([]float64, len(ys))
	for i, y := range ys {
		ysGB[i] = y / 1e9
	}
	fmt.Fprint(w, plot.Lines("  peak heap (GB) vs synthetic-Twitter percentage (cf. paper Fig. 9)",
		[]plot.Series{{Name: "measured", X: xs, Y: ysGB, Marker: '*'}}, 50, 10, false))
	fmt.Fprintf(w, "breaking point: %d%% of the (scaled) Twitter graph fits the budget (paper: 70%%)\n", breaking)

	a, b, err := stats.LinearFit(xs, ys)
	if err != nil {
		return err
	}
	proj100 := a + b*100
	fmt.Fprintf(w, "linear projection at 100%%: %s measured-scale", memmodel.GB(uint64(proj100)))
	fmt.Fprintf(w, "  (×%d scale ≈ %s full-scale; paper measures 11.01GB on a 16GB instance)\n", div, memmodel.GB(uint64(proj100*float64(div))))

	// Analytic cross-check at full scale, from the same array layouts.
	full := memmodel.IPregelBytes(memmodel.IPregelParams{
		Config:       core.Config{Direction: core.DirectionPull},
		V:            gen.TwitterV,
		E:            gen.TwitterE,
		ValueBytes:   8,
		MessageBytes: 8,
		InAdjacency:  true,
	})
	fmt.Fprintf(w, "analytic model at full Twitter scale: %s (paper: 11.01GB)\n", memmodel.GB(full))
	return nil
}
