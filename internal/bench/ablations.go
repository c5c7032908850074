package bench

import (
	"fmt"
	"io"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/pregelplus"
)

func init() {
	register(Experiment{
		ID:    "ablation-combiner",
		Title: "ablation (§6): Pregel+ with and without sender-side combining",
		Run:   runAblationCombiner,
	})
	register(Experiment{
		ID:    "ablation-inbox",
		Title: "ablation (§6): the four inbox combiners on a power-law graph",
		Run:   runAblationInbox,
	})
	register(Experiment{
		ID:    "ablation-balance",
		Title: "ablation (§4): load balance of the selection phase — equal shares with and without the bypass",
		Run:   runAblationBalance,
	})
	register(Experiment{
		ID:    "ablation-mirroring",
		Title: "ablation (Pregel+ WWW'15): vertex mirroring's wire-traffic reduction on the baseline",
		Run:   runAblationMirroring,
	})
}

// runAblationBalance measures the §4 claim directly: with selection
// bypass, "threads are guaranteed to run every vertex they are given", so
// equal shares of the frontier imply equal work; without it, equal shares
// of *all* vertices can hold very different numbers of active vertices.
// Imbalance is max/mean worker busy time (1.0 = perfect). Note: on a
// single-core host the workers timeshare one CPU, which inflates all
// numbers uniformly; the comparison between rows remains meaningful.
func runAblationBalance(o *Options, w io.Writer) error {
	g, err := o.Graph("usa")
	if err != nil {
		return err
	}
	threads := o.Threads
	if threads < 2 {
		threads = 4
	}
	fmt.Fprintf(w, "SSSP on usa, %d workers, spinlock combiner:\n", threads)
	for _, bypass := range []bool{false, true} {
		cfg := core.Config{
			Combiner:        core.CombinerSpin,
			SelectionBypass: bypass,
			Threads:         threads,
			TrackWorkerTime: true,
		}
		_, rep, err := algorithms.SSSP(g, cfg, o.SSSPSource)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  bypass=%-5v imbalance=%.3f (runtime %v)\n", bypass, rep.LoadImbalance(), rep.Duration)
	}
	return nil
}

// runAblationMirroring quantifies the baseline's own message-reduction
// technique (vertex mirroring) on the hub-heavy wiki stand-in.
func runAblationMirroring(o *Options, w io.Writer) error {
	g, err := o.Graph("wiki")
	if err != nil {
		return err
	}
	app := apps(o)[0] // PageRank: broadcast-heavy, hubs dominate traffic
	fmt.Fprintln(w, "Pregel+ (8 nodes, combiner off) PageRank on wiki:")
	for _, threshold := range []int{0, 64} {
		cfg := pregelplus.ClusterConfig{Nodes: 8, ProcsPerNode: 2, DisableCombiner: true, MirrorThreshold: threshold}
		m, rep, err := measurePP(o, app, g, cfg)
		if err != nil {
			return err
		}
		label := "no mirroring"
		if threshold > 0 {
			label = fmt.Sprintf("mirror deg>=%d", threshold)
		}
		fmt.Fprintf(w, "  %-16s %-36s wire=%-12d messages=%d\n", label, m.String(), rep.WireBytes, rep.Messages)
	}
	return nil
}

// runAblationInbox runs every combination module version (mutex,
// spinlock, atomic/CAS, and broadcast — Direction pull over the plain
// inbox) on the power-law wiki stand-in, where hub in-degrees make
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
	for _, cfg := range []core.Config{{Combiner: core.CombinerMutex}, {Combiner: core.CombinerSpin}, {Combiner: core.CombinerAtomic}, {Direction: core.DirectionPull}} {
		m, err := measureIP(o, app, g, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s %s\n", cfg.VersionName(), m)
		rows = append(rows, []string{cfg.VersionName(), itoa(int64(m.Mean)), itoa(int64(m.Margin))})
	}
	return saveCSV(o, "ablation-inbox", []string{"combiner", "mean_ns", "margin_ns"}, rows)
}

// runAblationCombiner shows what the combiner buys the *baseline*: the
// message-volume collapse that motivates combiner-based designs in the
// first place (the paper's title optimisation).
func runAblationCombiner(o *Options, w io.Writer) error {
	g, err := o.Graph("wiki")
	if err != nil {
		return err
	}
	app := apps(o)[1] // Hashmin
	fmt.Fprintln(w, "Pregel+ (4 nodes) Hashmin on wiki:")
	for _, disable := range []bool{false, true} {
		cfg := pregelplus.ClusterConfig{Nodes: 4, ProcsPerNode: 2, DisableCombiner: disable}
		m, rep, err := measurePP(o, app, g, cfg)
		if err != nil {
			return err
		}
		label := "with combiner"
		if disable {
			label = "no combiner"
		}
		fmt.Fprintf(w, "  %-14s %-36s messages=%-12d wire=%dB peakMem=%dB\n", label, m.String(), rep.Messages, rep.WireBytes, rep.PeakMemoryBytes)
	}
	return nil
}
