package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
	"ipregel/internal/service"
)

const (
	pollEvery   = 5 * time.Millisecond
	drainBudget = 10 * time.Second
	// maxGenLagMillis is how late (p95) the load generator may send before
	// the run warns that its latencies are the scheduler's.
	maxGenLagMillis = 5.0
	// A repeat reaches back at least repeatAfter jobs (a second of traffic),
	// so its original has finished, and at most repeatWithin, so the original
	// is still among the cache's 128 entries: every repeat is a cache hit.
	repeatAfter  = 20
	repeatWithin = 200
	valuesAsked  = 4
)

// mixBlock is the traffic mix: every twenty consecutive requests are these,
// shuffled by the seed.
var mixBlock = []string{
	"sssp", "sssp", "sssp", "sssp", "sssp", "bfs", "bfs", "bfs", "bfs", // 45% distinct sources
	"wcc", "wcc", "hashmin", "hashmin", // 20% labels, no_cache
	"pagerank", "pagerank", "pagerank", // 15% PageRank top:5, no_cache
	"repeat", "repeat", "repeat", "repeat", // 20% repeats of an earlier request
}

// svcJob is one planned request, what its answer must be, and what
// happened to it.
type svcJob struct {
	req      service.JobRequest
	body     []byte
	repeatOf int           // index of the request this repeats; -1 for none
	due      time.Duration // from the start of traffic
	want     service.Result

	loadResult // what happened to it
}

type svcPlan struct {
	g    *graph.Graph
	jobs []*svcJob
}

// oracles holds the reference results the plan's expectations come from.
type oracles struct {
	g        *graph.Graph
	hashmin  []uint32
	wcc      []uint32
	ranks    []float64
	rankSum  float64
	top      []service.VertexValue
	bySource map[uint64][]algorithms.BFSState // RefBFS; Depth doubles as the SSSP distance
}

func newOracles(g *graph.Graph) *oracles {
	o := &oracles{
		g:        g,
		hashmin:  algorithms.RefHashmin(g),
		wcc:      algorithms.RefWCC(g),
		ranks:    algorithms.RefPageRank(g, pageRankRounds),
		bySource: map[uint64][]algorithms.BFSState{},
	}
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
		o.rankSum += o.ranks[i]
	}
	sort.Slice(order, func(a, b int) bool {
		if o.ranks[order[a]] != o.ranks[order[b]] {
			return o.ranks[order[a]] > o.ranks[order[b]]
		}
		return order[a] < order[b]
	})
	for _, i := range order[:min(5, len(order))] {
		o.top = append(o.top, service.VertexValue{ID: uint64(g.ExternalID(i)), Value: o.ranks[i]})
	}
	return o
}

// want fills in the result req must produce.
func (o *oracles) want(req service.JobRequest) service.Result {
	var res service.Result
	base := uint64(o.g.Base())
	ids := append([]uint64(nil), req.Params.Vertices...)
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	pick := func(value func(i int) float64, parent func(i int) *uint64) {
		for k, id := range ids {
			if k > 0 && id == ids[k-1] {
				continue // the service answers each requested vertex once
			}
			v := service.VertexValue{ID: id, Value: value(int(id - base))}
			if parent != nil {
				v.Parent = parent(int(id - base))
			}
			res.Values = append(res.Values, v)
		}
	}
	labels := func(l []uint32) {
		res.Components = algorithms.ComponentCount(l)
		pick(func(i int) float64 { return float64(l[i]) }, nil)
	}
	switch req.Program {
	case "sssp", "bfs":
		src := *req.Params.Source
		states, ok := o.bySource[src]
		if !ok {
			states = algorithms.RefBFS(o.g, graph.VertexID(src))
			o.bySource[src] = states
		}
		for _, s := range states {
			if s.Depth != algorithms.Infinity {
				res.Reached++
			}
		}
		var parent func(i int) *uint64
		if req.Program == "bfs" {
			parent = func(i int) *uint64 {
				if states[i].Parent == algorithms.Infinity {
					return nil
				}
				p := uint64(states[i].Parent)
				return &p
			}
		}
		pick(func(i int) float64 { return float64(states[i].Depth) }, parent)
	case "hashmin":
		labels(o.hashmin)
	case "wcc":
		labels(o.wcc)
	case "pagerank":
		res.RankSum = o.rankSum
		res.Top = o.top
		pick(func(i int) float64 { return o.ranks[i] }, nil)
	}
	return res
}

// planService generates the resident graph, the request schedule and every
// expected answer from the seed. Requests come in blocks of twenty with the
// mix's exact proportions, shuffled inside the block, so every seed offers
// the same load.
func planService(r *run) *svcPlan {
	g := gen.Wikipedia(gen.PresetParams{Divisor: r.sc.svcDiv, Seed: r.opts.seed})
	rng := rand.New(rand.NewSource(r.opts.seed))
	o := newOracles(g)
	n := int(math.Ceil(r.sc.svcRate * (r.sc.svcWarm + r.opts.seconds)))

	// Distinct sources that reach something: a source with no out-edges
	// makes a job of one superstep.
	var sources []uint64
	for minDeg := 4; minDeg >= 0 && len(sources) < n; minDeg -= 2 {
		sources = sources[:0]
		for i := 0; i < g.N(); i++ {
			if g.OutDegree(i) >= minDeg {
				sources = append(sources, uint64(g.ExternalID(i)))
			}
		}
	}
	rng.Shuffle(len(sources), func(a, b int) { sources[a], sources[b] = sources[b], sources[a] })

	block := slices.Clone(mixBlock)
	plan := &svcPlan{g: g}
	var cacheable []int
	nextSource := 0
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[i%len(block)]
		// One request per interval, at a seeded moment inside it: evenly
		// spaced requests would keep one phase against the 5 ms polls for
		// the whole run and shift every latency by it.
		jb := &svcJob{repeatOf: -1, due: time.Duration((float64(i) + rng.Float64()) / r.sc.svcRate * float64(time.Second))}
		if kind == "repeat" {
			var old []int
			for _, c := range cacheable {
				if c <= i-repeatAfter && c >= i-repeatWithin {
					old = append(old, c)
				}
			}
			if len(old) == 0 {
				kind = "sssp" // nothing old enough to repeat yet
			} else {
				jb.repeatOf = old[rng.Intn(len(old))]
				jb.req = plan.jobs[jb.repeatOf].req
			}
		}
		if jb.repeatOf < 0 {
			jb.req = service.JobRequest{Graph: "g", Program: kind, Limits: service.Limits{Threads: timedThreads}}
			for k := 0; k < valuesAsked; k++ {
				jb.req.Params.Vertices = append(jb.req.Params.Vertices, uint64(g.Base())+uint64(rng.Intn(g.N())))
			}
			switch kind {
			case "sssp", "bfs":
				src := sources[nextSource%len(sources)]
				nextSource++
				jb.req.Params.Source = &src
				cacheable = append(cacheable, i)
			case "pagerank":
				jb.req.Params.Rounds = pageRankRounds
				jb.req.Params.Top = 5
				jb.req.NoCache = true
			default:
				jb.req.NoCache = true
			}
		}
		jb.want = o.want(jb.req)
		jb.body, _ = json.Marshal(jb.req) // a struct of plain fields always encodes
		plan.jobs = append(plan.jobs, jb)
	}
	return plan
}

// verify compares a finished job with its expectation.
func (jb *svcJob) verify(jobs []*svcJob) error {
	switch {
	case jb.Err != "":
		return errors.New(jb.Err)
	case jb.Status == http.StatusTooManyRequests:
		return fmt.Errorf("rejected with 429")
	case jb.Status != http.StatusOK && jb.Status != http.StatusAccepted:
		return fmt.Errorf("HTTP status %d", jb.Status)
	case !jb.Terminal:
		return fmt.Errorf("job %s still %s when the run ended", jb.View.ID, jb.View.State)
	case jb.View.State != service.StateDone:
		return fmt.Errorf("job %s ended %s: %s", jb.View.ID, jb.View.State, jb.View.Error)
	case jb.View.Result == nil:
		return fmt.Errorf("job %s is done without a result", jb.View.ID)
	}
	got, want := jb.View.Result, jb.want
	if got.Reached != want.Reached || got.Components != want.Components {
		return fmt.Errorf("job %s (%s): reached/components %d/%d, reference says %d/%d",
			jb.View.ID, jb.req.Program, got.Reached, got.Components, want.Reached, want.Components)
	}
	if math.Abs(got.RankSum-want.RankSum) > 1e-9 {
		return fmt.Errorf("job %s: rank_sum %v, reference says %v", jb.View.ID, got.RankSum, want.RankSum)
	}
	for name, pair := range map[string][2][]service.VertexValue{"values": {got.Values, want.Values}, "top": {got.Top, want.Top}} {
		g, w := pair[0], pair[1]
		if len(g) != len(w) {
			return fmt.Errorf("job %s: %d %s, expected %d", jb.View.ID, len(g), name, len(w))
		}
		for i := range w {
			if g[i].ID != w[i].ID || math.Abs(g[i].Value-w[i].Value) > 1e-9 || !reflect.DeepEqual(g[i].Parent, w[i].Parent) {
				return fmt.Errorf("job %s: %s[%d] is %+v, reference says %+v", jb.View.ID, name, i, g[i], w[i])
			}
		}
	}
	if jb.View.Cached {
		if jb.repeatOf < 0 {
			return fmt.Errorf("job %s was served from the cache but repeats nothing", jb.View.ID)
		}
		// The cache may by now hold a later run of the same request, so the
		// engine's time is the one field allowed to differ.
		first := jobs[jb.repeatOf].View.Result // nil if the original was refused or failed
		if first == nil {
			return fmt.Errorf("job %s: served from the cache, but its original has no result", jb.View.ID)
		}
		orig, hit := *first, *got
		orig.EngineMillis, hit.EngineMillis = 0, 0
		if !reflect.DeepEqual(hit, orig) {
			return fmt.Errorf("job %s: cached result differs from its original's", jb.View.ID)
		}
	}
	return nil
}

// runService is the service_mixed workload: ipregeld's service with its
// defaults, in this process, behind its HTTP handler on a loopback port.
// One connection submits on a fixed schedule whatever the service does (an
// open loop: analysts submit independently), one polls outstanding jobs.
// Latency runs from the moment a request was due to the poll that saw it
// done.
func runService(r *run) error {
	baseline := liveHeap()
	var plan *svcPlan
	setups, err := repeatSetup(r, func() error {
		plan = nil
		plan = planService(r)
		return nil
	})
	if err != nil {
		return err
	}
	jobs := plan.jobs

	svc := service.New(service.Options{ // ipregeld's flag defaults
		Queue:           64,
		Workers:         2,
		CacheEntries:    128,
		Engine:          core.Config{Combiner: core.CombinerSpin},
		MaxSupersteps:   100000,
		CheckpointRoot:  filepath.Join(r.tmp, "checkpoints"),
		CheckpointEvery: 8,
		CheckpointKeep:  3,
		RecoverAttempts: 3,
	})
	if err := svc.AddGraph("g", plan.g, "rmat"); err != nil {
		return err
	}
	if err := svc.Start(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	// The load generator, in a process of its own (loadgen.go).
	lp := loadPlan{URL: "http://" + ln.Addr().String(), PollEvery: pollEvery, Drain: drainBudget}
	for _, jb := range jobs {
		lp.Jobs = append(lp.Jobs, loadJob{Due: jb.due, Body: jb.body})
	}
	input, err := json.Marshal(lp)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	gen := exec.Command(exe, "--loadgen")
	var output bytes.Buffer
	gen.Stdin, gen.Stdout, gen.Stderr = bytes.NewReader(input), &output, r.log
	if err := gen.Start(); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- gen.Wait() }()
	var metricsMicros []float64
	sample := time.NewTicker(200 * time.Millisecond)
	defer sample.Stop()
	var genErr error
wait:
	for {
		select {
		case genErr = <-exited:
			break wait
		case <-sample.C:
			if r.tr != nil { // what a scrape of /metrics costs while jobs run
				t := time.Now()
				_ = svc.Collector().WriteMetrics(io.Discard) // io.Discard cannot fail
				metricsMicros = append(metricsMicros, float64(time.Since(t).Nanoseconds())/1e3)
			}
		}
	}
	heap := liveHeap() // service, graph, cache and job records still reachable

	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	<-served
	if err := svc.Close(ctx); err != nil {
		return err
	}
	if genErr != nil {
		return fmt.Errorf("load generator: %w", genErr)
	}
	var report loadReport
	if err := json.Unmarshal(output.Bytes(), &report); err != nil {
		return fmt.Errorf("load generator's report: %w", err)
	}
	if len(report.Jobs) != len(jobs) {
		return fmt.Errorf("load generator reported %d jobs of %d", len(report.Jobs), len(jobs))
	}
	for i, jb := range jobs {
		jb.loadResult = report.Jobs[i]
	}
	start := time.Unix(0, report.Start)
	maxOutstanding := report.MaxOutstanding

	// Judge every job; measure those due after the warm-up.
	warm := time.Duration(r.sc.svcWarm * float64(time.Second))
	var latency, cachedLatency, lag, rtt, queue, runMs, overhead []float64
	// The SSSP and BFS jobs, the mix's most common kind and, with sources
	// that reach the giant component, near-equal pieces of work: seconds on
	// a worker, seconds in Engine.Run, and seconds per message.
	var workerS, engineS, perMessageS []float64
	runBy := map[string][]float64{}
	var messages, supersteps, done, rejected, hits, measured, engineTotal float64
	byBlock := map[int][]float64{} // latencies of each block of twenty
	for i, jb := range jobs {
		r.attempted++
		if err := jb.verify(jobs); err != nil {
			r.fail("%v", err)
			if jb.Status == http.StatusTooManyRequests {
				rejected++
			}
			continue
		}
		done++
		r.traceJob(jb, start)
		if jb.due < warm {
			continue
		}
		measured++
		due := start.Add(jb.due).UnixNano()
		lat := float64(jb.Done-due) / 1e6
		latency = append(latency, lat)
		byBlock[i/len(mixBlock)] = append(byBlock[i/len(mixBlock)], lat)
		lag = append(lag, float64(jb.Sent-due)/1e6)
		rtt = append(rtt, float64(jb.Answered-jb.Sent)/1e6)
		if jb.View.Cached {
			hits++
			cachedLatency = append(cachedLatency, lat)
			continue
		}
		res := jb.View.Result
		queue = append(queue, jb.View.QueueMillis)
		runMs = append(runMs, jb.View.RunMillis)
		runBy[jb.req.Program] = append(runBy[jb.req.Program], jb.View.RunMillis)
		overhead = append(overhead, lat-jb.View.QueueMillis-jb.View.RunMillis)
		engineTotal += res.EngineMillis
		messages += float64(res.Messages)
		supersteps += float64(res.Supersteps)
		if p := jb.req.Program; (p == "sssp" || p == "bfs") && res.Messages > 0 {
			workerS = append(workerS, jb.View.RunMillis/1e3)
			engineS = append(engineS, res.EngineMillis/1e3)
			perMessageS = append(perMessageS, res.EngineMillis/1e3/float64(res.Messages))
		}
	}
	if len(engineS) == 0 {
		return fmt.Errorf("no SSSP or BFS job finished correctly inside the measured window")
	}
	// The tail is read block by block. A block of twenty holds the whole
	// mix, so its nearest-rank p95 is its second-slowest job, the middle one
	// of its three PageRank jobs unless something queued; the median of the
	// blocks' values is moved little by one stalled second, which in the
	// window's pooled p95 displaces most of the fifteen jobs beyond it.
	var tails []float64
	for _, lats := range byBlock {
		if n := len(lats); n == len(mixBlock) { // measured whole, not cut by the warm-up
			tails = append(tails, sorted(lats)[(95*n+99)/100-1])
		}
	}
	p95 := median(tails)
	if len(tails) == 0 { // a window shorter than one block reports the median twice
		p95 = median(latency)
	}
	lagP95 := percentileOrZero(lag, 95)
	fmt.Fprintf(r.log, "service_mixed: %d measured jobs, workers %.0f%% busy, generator lag p95 %.2f ms, latency p50 %.2f p95 %.2f ms, submit rtt p50 %.2f ms, run p50 ms:",
		int(measured), 100*sum(runMs)/(r.opts.seconds*1e3*2), lagP95, median(latency), p95, median(rtt))
	for _, p := range []string{"sssp", "bfs", "wcc", "hashmin", "pagerank"} {
		fmt.Fprintf(r.log, " %s %.2f", p, median(runBy[p]))
	}
	fmt.Fprintln(r.log)

	// A generator that sends late measures the scheduler, not the service.
	// It is reported, not refused: a driver needs a result from every run.
	if lagP95 > maxGenLagMillis {
		fmt.Fprintf(r.log, "service_mixed: WARNING: the generator sent its requests late (p95 %.2f ms > %.0f ms)\n", lagP95, maxGenLagMillis)
	}
	if r.tr == nil {
		r.set("setup_s", quiet(setups))
		r.set("wall_s", quiet(workerS))
		r.set("run_s", quiet(engineS))
		r.set("medges_per_s", 1/quiet(perMessageS)/1e6)
		r.set("live_heap_mb", (float64(heap)-float64(baseline))/1e6)
		r.set("latency_p50_ms", median(latency))
		r.set("latency_p95_ms", p95)
		return nil
	}

	r.set("service.jobs_sent", float64(len(jobs)))
	r.set("service.jobs_done", done)
	r.set("service.rejected_429", rejected)
	r.set("service.cache_hit_ratio", hits/measured)
	r.set("service.submit_rtt_p50_ms", median(rtt))
	r.set("service.queue_wait_p50_ms", median(queue))
	r.set("service.queue_wait_p95_ms", percentileOrZero(queue, 95))
	r.set("service.run_p50_ms", median(runMs))
	r.set("service.run_p95_ms", percentileOrZero(runMs, 95))
	for _, p := range []string{"sssp", "bfs", "wcc", "pagerank"} {
		r.set("service.run_p50_ms."+p, median(runBy[p]))
	}
	r.set("service.overhead_p50_ms", median(overhead))
	r.set("service.cached_latency_p50_ms", median(cachedLatency))
	r.set("service.window_p95_ms", percentileOrZero(latency, 95))
	r.set("service.max_outstanding", float64(maxOutstanding))
	r.set("service.gen_lag_p95_ms", lagP95)
	r.set("telemetry.write_metrics_us", median(metricsMicros))
	r.set("core.supersteps", supersteps)
	r.set("core.messages", messages)
	r.set("core.ns_per_message", engineTotal*1e6/messages)
	r.set("bench.reps", measured)

	g := plan.g
	r.set("graph.scan_flat_medges_per_s", scanRate(g, g.OutNeighborsWith))
	r.set("graph.memory_bytes_per_edge", float64(g.MemoryBytes())/float64(g.M()))
	t := time.Now()
	sym := g.Symmetrize(false) // what the first WCC job builds and later ones share
	end := time.Now()
	r.tr.add("graph.Symmetrize", "probe", 0, t, end, map[string]any{"edges": sym.M()})
	r.set("graph.symmetrize_s", end.Sub(t).Seconds())
	return nil
}

// traceJob records one finished job's spans: the POST, then queue and run
// from the service's own timestamps, then the wait for the poll that saw it.
func (r *run) traceJob(jb *svcJob, start time.Time) {
	if r.tr == nil {
		return
	}
	id := jb.View.ID
	done := time.Unix(0, jb.Done)
	root := r.tr.add("job", id, 0, start.Add(jb.due), done, map[string]any{"program": jb.req.Program, "cached": jb.View.Cached})
	r.tr.add("POST /v1/jobs", id, root, time.Unix(0, jb.Sent), time.Unix(0, jb.Answered), nil)
	if jb.View.Cached {
		return
	}
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	started := jb.View.EnqueuedAt.Add(ms(jb.View.QueueMillis))
	finished := started.Add(ms(jb.View.RunMillis))
	r.tr.add("queue", id, root, jb.View.EnqueuedAt, started, nil)
	r.tr.add("run", id, root, started, finished, map[string]any{
		"supersteps": jb.View.Result.Supersteps, "messages": jb.View.Result.Messages, "engine_ms": jb.View.Result.EngineMillis})
	r.tr.add("poll", id, root, finished, done, nil)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
