package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/femtograph"
	"ipregel/internal/graph"
	"ipregel/internal/memmodel"
	"ipregel/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "shm-baseline",
		Title: "§7.3 (missing comparison): iPregel vs a FemtoGraph-style shared-memory framework",
		Run:   runShmBaseline,
	})
}

// runShmBaseline fills the comparison the paper could not run: FemtoGraph
// is the only other in-memory shared-memory vertex-centric framework, but
// the authors "have not been able to observe correct results from this
// framework" (§7.3). This experiment runs a working reimplementation of
// that architecture (queue inboxes under per-vertex mutexes, hash-map
// addressing, full selection scans — see internal/femtograph) against
// iPregel's best version per application, isolating the gains of the
// paper's three optimisations within the same shared-memory setting.
func runShmBaseline(o *Options, w io.Writer) error {
	type femtoRunner func(g *graph.Graph, cfg femtograph.Config) (femtograph.Report, error)
	femto := map[string]femtoRunner{
		"PageRank": func(g *graph.Graph, cfg femtograph.Config) (femtograph.Report, error) {
			_, rep, err := femtograph.PageRank(g, cfg, o.PRRounds)
			return rep, err
		},
		"Hashmin": func(g *graph.Graph, cfg femtograph.Config) (femtograph.Report, error) {
			_, rep, err := femtograph.Hashmin(g, cfg)
			return rep, err
		},
		"SSSP": func(g *graph.Graph, cfg femtograph.Config) (femtograph.Report, error) {
			_, rep, err := femtograph.SSSP(g, cfg, o.SSSPSource)
			return rep, err
		},
	}
	for _, graphName := range []string{"wiki", "usa"} {
		g, err := o.Graph(graphName)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n--- %s graph ---\n", graphName)
		fmt.Fprintf(w, "%-10s %-22s %-22s %10s %16s\n", "app", "iPregel (best)", "femtograph-style", "speedup", "peak queue msgs")
		for _, app := range apps(o) {
			ip, err := measureIP(o, app, g, bestVersionFor(app))
			if err != nil {
				return err
			}
			var lastRep femtograph.Report
			fm := stats.RunUntilStable(o.Protocol, func() time.Duration {
				runtime.GC()
				rep, ferr := femto[app.name](g, femtograph.Config{Threads: o.Threads})
				if ferr != nil {
					err = ferr
					return 0
				}
				lastRep = rep
				return rep.Duration
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10s %-22v %-22v %9.2fx %16d\n",
				app.name, ip.Mean, fm.Mean, float64(fm.Mean)/float64(ip.Mean), lastRep.PeakQueuedMessages)
		}
		// Memory contrast: queue-based inboxes vs single-message mailboxes.
		fe, err := femtograph.New(g, femtograph.Config{}, femtograph.PageRankProgram(1))
		if err != nil {
			return err
		}
		ie, err := core.New(g, o.engineConfig(core.Config{Direction: core.DirectionPull}), algorithms.PageRankProgram(1))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "idle framework memory: femtograph-style %s vs iPregel %s\n",
			memmodel.GB(fe.MemoryBytes()), memmodel.GB(ie.FootprintBytes()))
	}
	return nil
}
