package bench

import (
	"fmt"
	"io"

	"ipregel/internal/core"
)

func init() {
	register(Experiment{
		ID:    "ablation-inbox",
		Title: "ablation (§6): the three combination module versions on a power-law graph",
		Run:   runAblationInbox,
	})
}

// runAblationInbox runs every combination module version (mutex,
// spinlock, and broadcast — Direction pull over the plain inbox) on the
// power-law wiki stand-in, where hub in-degrees make
// mailbox contention maximal. PageRank is the workload because it is
// broadcast-only, which every version — including pull — admits.
func runAblationInbox(o *Options, w io.Writer) error {
	g, err := o.Graph("wiki")
	if err != nil {
		return err
	}
	app := apps(o)[0] // PageRank
	var rows [][]string
	fmt.Fprintf(w, "PageRank on wiki (power-law), %-9s per combiner:\n", "runtime")
	for _, cfg := range []core.Config{{Combiner: core.CombinerMutex}, {Combiner: core.CombinerSpin}, {Direction: core.DirectionPull}} {
		m, err := measureIP(o, app, g, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s %s\n", cfg.VersionName(), m)
		rows = append(rows, []string{cfg.VersionName(), itoa(int64(m.Mean)), itoa(int64(m.Margin))})
	}
	return saveCSV(o, "ablation-inbox", []string{"combiner", "mean_ns", "margin_ns"}, rows)
}
