// Fault tolerance: the Pregel model's barrier checkpointing, demonstrated
// end-to-end with the crash-recovery supervisor. A long SSSP computation
// on a road network checkpoints every few supersteps through an atomic
// FileSink; a deterministic chaos injector kills the run twice — a worker
// panic early on, then a corrupted checkpoint paired with a second panic
// later — and core.RunWithRecovery auto-resumes each time from the newest
// checkpoint that still verifies. The final result is checked identical
// to an uninterrupted run.
//
//	go run ./examples/faulttolerance [-rows 150] [-cols 150] [-every 10]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"ipregel/internal/algorithms"
	"ipregel/internal/chaos"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("faulttolerance", flag.ContinueOnError)
	fs.SetOutput(out)
	rows := fs.Int("rows", 120, "grid rows")
	cols := fs.Int("cols", 120, "grid cols")
	every := fs.Int("every", 10, "checkpoint every N supersteps")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g := gen.Road(gen.RoadParams{Rows: *rows, Cols: *cols, Base: 1, BuildInEdges: true})
	fmt.Fprintln(out, graph.ComputeStats("road", g))
	cfg := core.Config{Combiner: core.CombinerSpin, SelectionBypass: true}
	prog := algorithms.SSSPProgram(1)

	// Ground truth: uninterrupted run.
	refEngine, refRep, err := core.Run(g, cfg, prog)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "uninterrupted: %d supersteps, %v\n", refRep.Supersteps, refRep.Duration.Round(1000))

	dir, err := os.MkdirTemp("", "ipregel-ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sink, err := core.NewFileSink(dir, 3)
	if err != nil {
		return err
	}
	defer sink.Close()

	// The fault plan, all deterministic: a compute panic a third of the
	// way in; then — once past that point — a bit flip corrupting the
	// checkpoint taken two-thirds in, paired with a panic at the same
	// superstep, so the recovery that follows must notice the corrupt
	// file and fall back to the checkpoint before it.
	first := refRep.Supersteps / 3
	second := 2 * refRep.Supersteps / 3
	second -= second % *every // align with a checkpoint barrier
	inj := chaos.New(42,
		chaos.Event{Fault: chaos.ComputePanic, Superstep: first},
		chaos.Event{Fault: chaos.BitFlip, Superstep: second, Arg: -1},
		chaos.Event{Fault: chaos.ComputePanic, Superstep: second},
	)
	fmt.Fprintf(out, "fault plan: %v\n", inj.Pending())

	crashCfg := cfg
	crashCfg.Observers = append(crashCfg.Observers, inj.Observer())
	cp := core.Checkpointer[uint32, uint32]{
		Every:  *every,
		Sink:   inj.WrapSink(sink.Sink),
		VCodec: pregelplus.Uint32Codec{},
		MCodec: pregelplus.Uint32Codec{},
	}
	restored, rep, err := core.RunWithRecovery(context.Background(), g, crashCfg, chaos.WrapProgram(inj, prog), cp, sink, core.RecoveryOptions{
		MaxAttempts: 4,
		AttemptContext: func(parent context.Context, _ int) (context.Context, context.CancelFunc) {
			return inj.Context(parent)
		},
		OnRetry: func(attempt int, err error) {
			fmt.Fprintf(out, "attempt %d died: %v\n", attempt, err)
			if _, superstep, found, lerr := sink.LatestGood(); lerr == nil && found {
				fmt.Fprintf(out, "  resuming from checkpoint %d\n", superstep)
			}
		},
	})
	if err != nil {
		return err
	}
	for _, ev := range inj.Fired() {
		fmt.Fprintf(out, "chaos fired: %v\n", ev)
	}
	fmt.Fprintf(out, "recoveries: %d (attempts: %d), finished at superstep %d\n", rep.Recoveries, rep.Attempts, rep.Supersteps)
	if rep.Recoveries == 0 {
		return errors.New("expected at least one recovery")
	}

	want := refEngine.ValuesDense()
	got := restored.ValuesDense()
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("recovered result differs at vertex %d: %d vs %d", i, got[i], want[i])
		}
	}
	fmt.Fprintln(out, "recovered result identical to the uninterrupted run ✓")
	return nil
}
