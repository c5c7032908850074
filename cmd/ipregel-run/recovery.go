package main

import (
	"context"
	"fmt"
	"io"

	"ipregel/internal/algorithms"
	"ipregel/internal/chaos"
	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

// recoveryFlags groups the crash-recovery CLI knobs: where checkpoints
// go, how often they are taken, how many the sink retains, how many run
// attempts the supervisor gets, and an optional chaos fault spec to
// exercise the recovery path (see internal/chaos.FromSpec for the
// grammar, e.g. "seed=7,panic@3,sink@5").
type recoveryFlags struct {
	dir      string
	every    int
	keep     int
	attempts int
	chaos    string
}

// runRecoverable executes one app under core.RunWithRecovery: every
// barrier multiple of -checkpoint-every is persisted atomically to
// -checkpoint-dir, and a failed attempt (compute panic, cancellation,
// sink error — injected or real) resumes from the newest good
// checkpoint instead of restarting at superstep 0. Only the single-node
// iPregel engine checkpoints; apps whose driver composes several runs
// (scc) or rewrites the graph (wcc) are not resumable from one engine
// checkpoint and are rejected.
func runRecoverable(out io.Writer, g *graph.Graph, cfg core.Config, rf recoveryFlags, app string, rounds int, source graph.VertexID) (core.Report, error) {
	switch app {
	case "pagerank":
		e, rep, err := recoverRun(out, g, cfg, rf, algorithms.PageRankProgram(rounds), pregelplus.Float64Codec{})
		if err == nil {
			fmt.Fprintf(out, "ranks computed for %d vertices\n", len(e.ValuesDense()))
		}
		return rep, err
	case "pagerank-converged":
		const tol = 1e-9
		e, rep, err := recoverRun(out, g, cfg, rf, algorithms.PageRankConvergedProgram(tol), pregelplus.Float64Codec{})
		if err == nil {
			fmt.Fprintf(out, "converged in %d supersteps over %d vertices\n", rep.Supersteps, len(e.ValuesDense()))
		}
		return rep, err
	case "hashmin":
		e, rep, err := recoverRun(out, g, cfg, rf, algorithms.HashminProgram(), pregelplus.Uint32Codec{})
		if err == nil {
			fmt.Fprintf(out, "components: %d\n", algorithms.ComponentCount(e.ValuesDense()))
		}
		return rep, err
	case "sssp":
		e, rep, err := recoverRun(out, g, cfg, rf, algorithms.SSSPProgram(source), pregelplus.Uint32Codec{})
		if err == nil {
			dist := e.ValuesDense()
			fmt.Fprintf(out, "reached: %d of %d vertices\n", countReached(dist), len(dist))
		}
		return rep, err
	default:
		return core.Report{}, fmt.Errorf("-checkpoint-dir supports pagerank | pagerank-converged | hashmin | sssp, not %q", app)
	}
}

// recoverRun is the app-generic recovery harness: build the FileSink,
// optionally thread a chaos injector through the program, observers and
// sink, then hand everything to the supervisor. Each retry is narrated
// to out and counted in the shared telemetry collector.
func recoverRun[T any](
	out io.Writer,
	g *graph.Graph,
	cfg core.Config,
	rf recoveryFlags,
	prog core.Program[T, T],
	codec core.Codec[T],
) (*core.Engine[T, T], core.Report, error) {
	sink, err := core.NewFileSink(rf.dir, rf.keep)
	if err != nil {
		return nil, core.Report{}, err
	}
	// Release the directory claim when this invocation is done so a later
	// run in the same process (tests, a driving harness) can resume from
	// the same -checkpoint-dir.
	defer sink.Close()
	sinkFn := sink.Sink
	var inj *chaos.Injector
	if rf.chaos != "" {
		inj, err = chaos.FromSpec(rf.chaos)
		if err != nil {
			return nil, core.Report{}, err
		}
		prog = chaos.WrapProgram(inj, prog)
		cfg.Observers = append(cfg.Observers, inj.Observer())
		sinkFn = inj.WrapSink(sinkFn)
	}
	cp := core.Checkpointer[T, T]{Every: rf.every, Sink: sinkFn, VCodec: codec, MCodec: codec}
	opts := core.RecoveryOptions{
		MaxAttempts: rf.attempts,
		OnRetry: func(attempt int, err error) {
			telemetryCollector().RecordRecovery()
			fmt.Fprintf(out, "recovery: attempt %d failed (%v), resuming from the newest checkpoint in %s\n",
				attempt, err, sink.Dir())
		},
	}
	if inj != nil {
		opts.AttemptContext = func(parent context.Context, _ int) (context.Context, context.CancelFunc) {
			return inj.Context(parent)
		}
	}
	e, rep, err := core.RunWithRecovery(context.Background(), g, cfg, prog, cp, sink, opts)
	if inj != nil {
		for _, ev := range inj.Fired() {
			fmt.Fprintf(out, "chaos: fired %s\n", ev)
		}
	}
	return e, rep, err
}
