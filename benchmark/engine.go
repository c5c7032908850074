package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
	"unsafe"

	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
)

// engineSpec is one engine workload: how to make its inputs and how to
// judge its outputs. The engine configuration is pinned to what ipregel-run
// gives a user who names only the app and the graph — spinlock combiner,
// offset addressing, static schedule, one shard — so a later change that
// makes the engine choose better inside core.New/Run shows here and one
// that only flips a CLI default does not.
type engineSpec[V, M any] struct {
	bypass    bool // selection bypass, as the paper runs Hashmin and SSSP
	direction core.Direction
	setup     func(r *run) (*engineInput[V, M], error)
	same      func(got, want V) bool
	vcodec    core.Codec[V]
	mcodec    core.Codec[M]
}

// engineInput is what one set-up produces.
type engineInput[V, M any] struct {
	g    *graph.Graph // the resident graph; nil when the operation loads file
	file string       // IPG3 file every operation maps (load_sssp_mmap)
	prog core.Program[V, M]
	ref  []V // reference result, one value per vertex
	// refTime is how long the sequential reference took on this graph.
	refTime time.Duration
	// probes are extra per-layer measurements only this workload's set-up
	// can make (traced pass only).
	probes func(r *run) error
}

// timedThreads is the engine's thread count in every timed operation and
// every service job. The issue pinned min(nproc, GOMAXPROCS); this box's two
// processors are one core's worth for minutes at a time, and a spinning
// engine thread that waits for a descheduled one turns that into run times
// a bound of 0.25 cannot hold (README.md, "Why one thread"). The traced
// pass repeats every operation on all processors, interleaved, and reports
// core.speedup_vs_1t and core.worker_imbalance.
const timedThreads = 1

func (s engineSpec[V, M]) config() core.Config {
	return core.Config{
		Combiner:        core.CombinerSpin,
		Direction:       s.direction,
		SelectionBypass: s.bypass,
		Threads:         timedThreads,
	}
}

// opTimes are the phases of one operation, timed around the calls.
type opTimes struct {
	wall, open, build, run, dense time.Duration
}

type opResult[V any] struct {
	opTimes
	report    core.Report
	values    []V
	footprint uint64 // Engine.FootprintBytes
	graphMem  uint64 // Graph.MemoryBytes
	edges     uint64
	liveHeap  uint64 // only when asked for
}

// operation is the user's whole path: (map the file →) core.New → Run →
// ValuesDense (→ unmap). When traced, each call is recorded as a span under
// op, with one child span of Run per superstep from a core.Observer.
func operation[V, M any](r *run, in *engineInput[V, M], cfg core.Config, op string, traced, wantHeap bool) (opResult[V], error) {
	var res opResult[V]
	tr := r.tr
	if !traced {
		tr = nil
	}
	t0 := time.Now()
	root := tr.open("operation", op, 0, t0)

	g := in.g
	var mapped *graphio.Mapped
	if in.file != "" {
		var err error
		// ipregel-run maps with in-edges for every app but wsssp.
		mapped, err = graphio.OpenMapped(in.file, graphio.Options{BuildInEdges: true})
		if err != nil {
			return res, err
		}
		defer mapped.Close() // error paths; Close is idempotent
		g = mapped.Graph()
		res.open = time.Since(t0)
		tr.add("graphio.OpenMapped", op, root, t0, t0.Add(res.open), nil)
	}

	var runSpan int
	if tr != nil {
		var stepStart time.Time
		cfg.Observers = append(append([]core.Observer(nil), cfg.Observers...), core.ObserverFuncs{
			SuperstepStart: func(int) { stepStart = time.Now() },
			SuperstepEnd: func(k int, s core.StepStats) {
				tr.add("superstep", op, runSpan, stepStart, time.Now(), map[string]any{
					"superstep": k, "ran": s.Ran, "messages": s.Messages, "active": s.Active,
					"pull": s.Direction == core.DirectionPull,
				})
			},
		})
	}

	t1 := time.Now()
	e, err := core.New(g, cfg, in.prog)
	if err != nil {
		return res, err
	}
	t2 := time.Now()
	res.build = t2.Sub(t1)
	tr.add("core.New", op, root, t1, t2, nil)

	runSpan = tr.open("core.Engine.Run", op, root, t2)
	res.report, err = e.Run()
	t3 := time.Now()
	res.run = t3.Sub(t2)
	tr.close(runSpan, t3, map[string]any{"supersteps": res.report.Supersteps, "messages": res.report.TotalMessages})
	if err != nil {
		return res, err
	}

	res.values = e.ValuesDense()
	t4 := time.Now()
	res.dense = t4.Sub(t3)
	tr.add("core.Engine.ValuesDense", op, root, t3, t4, nil)

	res.footprint = e.FootprintBytes()
	res.graphMem = g.MemoryBytes()
	res.edges = g.M()
	if wantHeap {
		res.liveHeap = liveHeap()
		runtime.KeepAlive(e)
	}
	end := t4
	if mapped != nil {
		tc := time.Now()
		if err := mapped.Close(); err != nil {
			return res, err
		}
		end = time.Now()
		tr.add("graphio.Mapped.Close", op, root, tc, end, nil)
	}
	res.wall = end.Sub(t0) // meaningless when wantHeap put a collection inside it
	tr.close(root, end, nil)
	return res, nil
}

// repeatSetup runs a workload's set-up several times — at least the
// scale's count, and for 1.5 s if it is quick — so that setup_s rests on
// enough samples to be steady. The traced pass, which does not report it,
// sets up once. It returns each set-up's seconds.
func repeatSetup(r *run, setup func() error) ([]float64, error) {
	var secs []float64
	var total float64
	for len(secs) < r.sc.setups || (total < 1.5 && len(secs) < 25) {
		t := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		d := time.Since(t).Seconds()
		secs = append(secs, d)
		total += d
		if r.tr != nil || r.sc.setups == 1 {
			break
		}
	}
	return secs, nil
}

// quiet is the timing a workload reports for its repetitions: the fastest
// one. Every repetition does the same work, so they differ only by
// interference, which only ever adds time; on this kind of two-vCPU guest
// the same loop runs up to 1.5x slower for tens of seconds at a time, and
// over 120 runs the minimum moved least from run to run, the median most
// (README.md, "Why the fastest repetition").
func quiet(xs []float64) float64 { return slices.Min(xs) }

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// engineRun is one engine workload under way: its inputs, its pinned
// configuration and the judging of its operations.
type engineRun[V, M any] struct {
	r           *run
	spec        engineSpec[V, M]
	in          *engineInput[V, M]
	cfg         core.Config
	fingerprint string // the first checked report's
}

// sameValues counts one operation and fails it unless values equal the
// reference vertex by vertex.
func (e *engineRun[V, M]) sameValues(op string, values []V) bool {
	e.r.attempted++
	if len(values) != len(e.in.ref) {
		e.r.fail("%s: %d values, reference has %d", op, len(values), len(e.in.ref))
		return false
	}
	for i, want := range e.in.ref {
		if !e.spec.same(values[i], want) {
			e.r.fail("%s: vertex %d is %v, reference says %v", op, i, values[i], want)
			return false
		}
	}
	return true
}

// check judges a whole operation: its values, that the run converged, and
// that its report's fingerprint equals every other operation's.
func (e *engineRun[V, M]) check(op string, res opResult[V]) {
	if !e.sameValues(op, res.values) {
		return
	}
	if !res.report.Converged {
		e.r.fail("%s: run did not converge: %s", op, res.report.AbortReason)
		return
	}
	fp := res.report.Fingerprint()
	if e.fingerprint == "" {
		e.fingerprint = fp
	} else if fp != e.fingerprint {
		e.r.fail("%s: report fingerprint differs from the first repetition's", op)
	}
}

// runEngine is the body of every engine workload.
func runEngine[V, M any](r *run, spec engineSpec[V, M]) error {
	baseline := liveHeap()

	// Set-up: generate the graph, write files, compute the reference. Only
	// the last result is kept.
	var in *engineInput[V, M]
	setups, err := repeatSetup(r, func() (err error) {
		in = nil
		in, err = spec.setup(r)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	var v V
	ownBytes := uint64(len(in.ref)) * uint64(unsafe.Sizeof(v))
	e := &engineRun[V, M]{r: r, spec: spec, in: in, cfg: spec.config()}

	// One warm-up operation, which also measures the live heap: graph,
	// engine and result still reachable, less what the process held before
	// set-up and the benchmark's own reference array.
	warm, err := operation(r, in, e.cfg, "warmup", false, true)
	if err != nil {
		return err
	}
	e.check("warm-up", warm)
	warm.values = nil
	heapMB := (float64(warm.liveHeap) - float64(baseline) - float64(ownBytes)) / 1e6

	// The measured window. The traced pass interleaves plain, traced,
	// telemetered and all-processor operations so their ratios see the same
	// machine state.
	modes := []string{"plain"}
	if r.tr != nil {
		modes = []string{"plain", "traced", "telemetry", "parallel"}
	}
	byMode := map[string][]opResult[V]{}
	tel := newTelemetrySinks()
	deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if r.opts.reps > 0 {
			if i >= r.opts.reps*len(modes) {
				break
			}
		} else if i >= 3*len(modes) && time.Now().After(deadline) {
			break
		}
		mode := modes[i%len(modes)]
		c := e.cfg
		switch mode {
		case "telemetry":
			c.Observers = tel.observers()
		case "parallel":
			c.Threads = r.nproc
			c.TrackWorkerTime = true
		}
		op := fmt.Sprintf("rep%d", i)
		res, err := operation(r, in, c, op, mode == "traced", false)
		if err != nil {
			return err
		}
		e.check(op, res)
		res.values = nil
		byMode[mode] = append(byMode[mode], res)
	}

	plain := byMode["plain"]
	runs := make([]float64, len(plain))
	walls := make([]float64, len(plain))
	for i, p := range plain {
		runs[i], walls[i] = p.run.Seconds(), p.wall.Seconds()
	}
	runS, wallS := quiet(runs), quiet(walls)
	fmt.Fprintf(r.log, "%s: %d repetitions, run_s fastest %.4f, median %.4f, spread %.3f\n", r.opts.workload, len(runs), runS, median(runs), spread(runs))
	if r.tr == nil {
		r.set("setup_s", quiet(setups))
		r.set("wall_s", wallS)
		r.set("run_s", runS)
		r.set("medges_per_s", float64(warm.report.TotalMessages)/runS/1e6)
		r.set("live_heap_mb", heapMB)
		// One operation is in flight at a time and nothing arrives, so a
		// request's latency is the operation's wall time, and repetitions
		// of identical work have no tail of their own to report.
		r.set("latency_p50_ms", wallS*1e3)
		r.set("latency_p95_ms", wallS*1e3)
		return nil
	}
	return engineLayers(e, warm, byMode, runS, tel)
}

func sameFloat(got, want float64) bool { return math.Abs(got-want) <= 1e-9 }
func sameUint32(got, want uint32) bool { return got == want }
