package service

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/pregelplus"
)

// programSpec is one servable program: canon validates and normalises
// the request params (the canonical form feeds both execution and the
// cache key), run executes the job, bypassOK marks halt-every-superstep
// programs that tolerate an Engine template with SelectionBypass on.
type programSpec struct {
	canon    func(g *graph.Graph, p Params) (Params, error)
	run      func(ctx context.Context, s *Service, jb *Job) (*Result, core.Report, error)
	bypassOK bool
}

var programs = map[string]programSpec{
	"pagerank":           {canon: canonPageRank, run: runPageRank},
	"pagerank-converged": {canon: canonPageRankConverged, run: runPageRankConverged},
	"sssp":               {canon: canonSourced, run: runSSSP, bypassOK: true},
	"bfs":                {canon: canonSourced, run: runBFS, bypassOK: true},
	"hashmin":            {canon: canonLabels, run: runHashmin, bypassOK: true},
	"wcc":                {canon: canonLabels, run: runWCC, bypassOK: true},
}

func programNames() string {
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// --- parameter canonicalisation ---------------------------------------

const (
	defaultRounds    = 30
	maxRounds        = 100000
	defaultTolerance = 1e-9
	maxTop           = 100
	maxValueRequests = 4096
)

// canonVertices validates, sorts and deduplicates a requested vertex
// list against g's identifier range.
func canonVertices(g *graph.Graph, ids []uint64) ([]uint64, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	if len(ids) > maxValueRequests {
		return nil, reqErrorf("params.vertices lists %d identifiers, max %d", len(ids), maxValueRequests)
	}
	base, n := uint64(g.Base()), uint64(g.N())
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, id := range out {
		if id < base || id >= base+n {
			return nil, reqErrorf("params.vertices[%d]=%d outside the graph's identifier range [%d, %d)", i, id, base, base+n)
		}
		if w == 0 || out[w-1] != id {
			out[w] = id
			w++
		}
	}
	return out[:w], nil
}

// rejectUnused errors when a param a program ignores was set — silently
// accepting it would make two differently-keyed requests compute the
// same thing (cache aliasing the safe way round, but misleading) and
// hide client mistakes.
func rejectUnused(program string, p Params, rounds, source, tolerance, top bool) error {
	if !rounds && p.Rounds != 0 {
		return reqErrorf("params.rounds is not used by %s", program)
	}
	if !source && p.Source != nil {
		return reqErrorf("params.source is not used by %s", program)
	}
	if !tolerance && p.Tolerance != 0 {
		return reqErrorf("params.tolerance is not used by %s", program)
	}
	if !top && p.Top != 0 {
		return reqErrorf("params.top is not used by %s", program)
	}
	return nil
}

// canonDirection validates the cross-program direction param (it picks
// the engine transport, so every program accepts it and the per-program
// canon funcs never see it). Canonical form: the empty string when the
// request matches the engine template's default, so an explicit default
// shares its cache key with the omitted field.
func (s *Service) canonDirection(entry *graphEntry, program, raw string) (string, error) {
	if raw == "" {
		return "", nil
	}
	dir, err := core.ParseDirection(raw)
	if err != nil {
		return "", reqErrorf("params.direction: %v", err)
	}
	if dir == s.opts.Engine.Direction {
		return "", nil
	}
	// WCC runs on the lazily symmetrized graph, which can build in-edges
	// on demand; every other program runs on the resident graph as
	// loaded.
	if dir != core.DirectionPush && program != "wcc" && !entry.g.HasInEdges() {
		return "", reqErrorf("params.direction %q needs graph %q loaded with in-edges", dir, entry.name)
	}
	return dir.String(), nil
}

func canonTop(top int) (int, error) {
	if top < 0 {
		return 0, reqErrorf("params.top must be >= 0")
	}
	if top > maxTop {
		return 0, reqErrorf("params.top %d exceeds the maximum %d", top, maxTop)
	}
	return top, nil
}

func canonPageRank(g *graph.Graph, p Params) (Params, error) {
	if err := rejectUnused("pagerank", p, true, false, false, true); err != nil {
		return Params{}, err
	}
	out := Params{Rounds: p.Rounds}
	if out.Rounds == 0 {
		out.Rounds = defaultRounds
	}
	if out.Rounds < 1 || out.Rounds > maxRounds {
		return Params{}, reqErrorf("params.rounds must be in [1, %d]", maxRounds)
	}
	var err error
	if out.Top, err = canonTop(p.Top); err != nil {
		return Params{}, err
	}
	if out.Vertices, err = canonVertices(g, p.Vertices); err != nil {
		return Params{}, err
	}
	return out, nil
}

func canonPageRankConverged(g *graph.Graph, p Params) (Params, error) {
	if err := rejectUnused("pagerank-converged", p, false, false, true, true); err != nil {
		return Params{}, err
	}
	out := Params{Tolerance: p.Tolerance}
	if out.Tolerance == 0 {
		out.Tolerance = defaultTolerance
	}
	if out.Tolerance < 0 || out.Tolerance >= 1 {
		return Params{}, reqErrorf("params.tolerance must be in (0, 1)")
	}
	var err error
	if out.Top, err = canonTop(p.Top); err != nil {
		return Params{}, err
	}
	if out.Vertices, err = canonVertices(g, p.Vertices); err != nil {
		return Params{}, err
	}
	return out, nil
}

func canonSourced(g *graph.Graph, p Params) (Params, error) {
	if err := rejectUnused("this program", p, false, true, false, false); err != nil {
		return Params{}, err
	}
	if p.Source == nil {
		return Params{}, reqErrorf("params.source is required")
	}
	base, n := uint64(g.Base()), uint64(g.N())
	if *p.Source < base || *p.Source >= base+n {
		return Params{}, reqErrorf("params.source %d outside the graph's identifier range [%d, %d)", *p.Source, base, base+n)
	}
	src := *p.Source
	out := Params{Source: &src}
	var err error
	if out.Vertices, err = canonVertices(g, p.Vertices); err != nil {
		return Params{}, err
	}
	return out, nil
}

func canonLabels(g *graph.Graph, p Params) (Params, error) {
	if err := rejectUnused("this program", p, false, false, false, false); err != nil {
		return Params{}, err
	}
	var out Params
	var err error
	if out.Vertices, err = canonVertices(g, p.Vertices); err != nil {
		return Params{}, err
	}
	return out, nil
}

// --- execution ---------------------------------------------------------

// bfsCodec checkpoints algorithms.BFSState (two little-endian uint32s).
type bfsCodec struct{}

func (bfsCodec) Size() int { return 8 }
func (bfsCodec) Encode(buf []byte, v algorithms.BFSState) {
	binary.LittleEndian.PutUint32(buf, v.Parent)
	binary.LittleEndian.PutUint32(buf[4:], v.Depth)
}
func (bfsCodec) Decode(buf []byte) algorithms.BFSState {
	return algorithms.BFSState{
		Parent: binary.LittleEndian.Uint32(buf),
		Depth:  binary.LittleEndian.Uint32(buf[4:]),
	}
}

// jobConfig derives the job's engine Config from the service template:
// per-job limits overwrite Threads and MaxSupersteps, the canonical
// direction param (if set) overrides the transport, the job's
// telemetry scope joins the observers, and SelectionBypass is stripped
// for programs that do not vote to halt every superstep.
func jobConfig(s *Service, jb *Job) core.Config {
	cfg := s.opts.Engine
	cfg.Threads = jb.limits.Threads
	cfg.MaxSupersteps = jb.limits.MaxSupersteps
	cfg.SelectionBypass = cfg.SelectionBypass && jb.spec.bypassOK
	if jb.params.Direction != "" {
		if dir, err := core.ParseDirection(jb.params.Direction); err == nil {
			cfg.Direction = dir
		}
	}
	obs := make([]core.Observer, 0, len(s.opts.Engine.Observers)+1)
	obs = append(obs, s.opts.Engine.Observers...)
	obs = append(obs, jb.scope)
	cfg.Observers = obs
	return cfg
}

// runProgram executes one program on one job: directly when the service
// has no checkpoint root, else under the crash-recovery supervisor with
// a FileSink on the job's own directory <run>/<job-id>, so concurrent
// jobs can never prune each other's checkpoints. The sink makes that
// directory at the job's first checkpoint; after success it is deleted
// if it was made (a finished job has nothing to resume), and after
// failure or cancellation it is kept so the work is recoverable.
func runProgram[V, M any](
	ctx context.Context, s *Service, jb *Job, g *graph.Graph,
	prog core.Program[V, M], vc core.Codec[V], mc core.Codec[M],
) ([]V, core.Report, error) {
	cfg := jobConfig(s, jb)

	if s.opts.CheckpointRoot == "" {
		e, err := core.New(g, cfg, prog)
		if err != nil {
			return nil, core.Report{}, err
		}
		rep, err := e.RunContext(ctx)
		if err != nil {
			return nil, rep, err
		}
		return e.ValuesDense(), rep, nil
	}

	sink, err := core.NewFileSink(filepath.Join(s.runDir, jb.id), s.opts.CheckpointKeep)
	if err != nil {
		return nil, core.Report{}, err
	}
	defer sink.Close()
	e, rep, err := core.RunWithRecovery(ctx, g, cfg, prog,
		core.Checkpointer[V, M]{Every: s.opts.CheckpointEvery, Sink: sink.Sink, VCodec: vc, MCodec: mc},
		sink,
		core.RecoveryOptions{
			MaxAttempts: s.opts.RecoverAttempts,
			OnRetry:     func(int, error) { jb.scope.RecordRecovery() },
		})
	if err != nil {
		return nil, rep, err
	}
	sink.Close()
	if sink.Made() {
		_ = os.RemoveAll(sink.Dir())
	}
	return e.ValuesDense(), rep, nil
}

// baseResult fills the program-independent Result fields.
func baseResult(g *graph.Graph, rep core.Report) *Result {
	return &Result{
		Supersteps:   rep.Supersteps,
		Messages:     rep.TotalMessages,
		EngineMillis: float64(rep.Duration) / float64(time.Millisecond),
		VertexCount:  g.N(),
	}
}

// rankResult fills the PageRank-family fields: total rank mass, the
// top-N vertices and any requested values.
func rankResult(res *Result, g *graph.Graph, ranks []float64, p Params) {
	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	res.RankSum = sum
	if p.Top > 0 {
		res.Top = topRanks(g, ranks, p.Top)
	}
	res.Values = pickValues(g, p.Vertices, func(i int) float64 { return ranks[i] }, nil)
}

// topRanks selects the k highest-ranked vertices (ties broken by
// smaller identifier) by insertion into a k-sized window — k is capped
// at maxTop, so no heap is warranted.
func topRanks(g *graph.Graph, ranks []float64, k int) []VertexValue {
	if k > len(ranks) {
		k = len(ranks)
	}
	top := make([]VertexValue, 0, k)
	for i, r := range ranks {
		if len(top) == k && r <= top[k-1].Value {
			continue
		}
		v := VertexValue{ID: uint64(g.ExternalID(i)), Value: r}
		pos := sort.Search(len(top), func(j int) bool {
			return top[j].Value < r || (top[j].Value == r && top[j].ID > v.ID)
		})
		if len(top) < k {
			top = append(top, VertexValue{})
		}
		copy(top[pos+1:], top[pos:])
		top[pos] = v
	}
	return top
}

// pickValues resolves the requested external identifiers to values;
// parent (may be nil) supplies BFS predecessor links.
func pickValues(g *graph.Graph, ids []uint64, value func(i int) float64, parent func(i int) *uint64) []VertexValue {
	if len(ids) == 0 {
		return nil
	}
	out := make([]VertexValue, len(ids))
	base := uint64(g.Base())
	for k, id := range ids {
		i := int(id - base)
		out[k] = VertexValue{ID: id, Value: value(i)}
		if parent != nil {
			out[k].Parent = parent(i)
		}
	}
	return out
}

func runPageRank(ctx context.Context, s *Service, jb *Job) (*Result, core.Report, error) {
	ranks, rep, err := runProgram(ctx, s, jb, jb.entry.g,
		algorithms.PageRankProgram(jb.params.Rounds),
		pregelplus.Float64Codec{}, pregelplus.Float64Codec{})
	if err != nil {
		return nil, rep, err
	}
	res := baseResult(jb.entry.g, rep)
	rankResult(res, jb.entry.g, ranks, jb.params)
	return res, rep, nil
}

func runPageRankConverged(ctx context.Context, s *Service, jb *Job) (*Result, core.Report, error) {
	ranks, rep, err := runProgram(ctx, s, jb, jb.entry.g,
		algorithms.PageRankConvergedProgram(jb.params.Tolerance),
		pregelplus.Float64Codec{}, pregelplus.Float64Codec{})
	if err != nil {
		return nil, rep, err
	}
	res := baseResult(jb.entry.g, rep)
	res.ConvergedIn = rep.Supersteps
	rankResult(res, jb.entry.g, ranks, jb.params)
	return res, rep, nil
}

func runSSSP(ctx context.Context, s *Service, jb *Job) (*Result, core.Report, error) {
	dists, rep, err := runProgram(ctx, s, jb, jb.entry.g,
		algorithms.SSSPProgram(graph.VertexID(*jb.params.Source)),
		pregelplus.Uint32Codec{}, pregelplus.Uint32Codec{})
	if err != nil {
		return nil, rep, err
	}
	res := baseResult(jb.entry.g, rep)
	for _, d := range dists {
		if d != algorithms.Infinity {
			res.Reached++
		}
	}
	res.Values = pickValues(jb.entry.g, jb.params.Vertices, func(i int) float64 { return float64(dists[i]) }, nil)
	return res, rep, nil
}

func runBFS(ctx context.Context, s *Service, jb *Job) (*Result, core.Report, error) {
	states, rep, err := runProgram(ctx, s, jb, jb.entry.g,
		algorithms.BFSProgram(graph.VertexID(*jb.params.Source)),
		bfsCodec{}, pregelplus.Uint32Codec{})
	if err != nil {
		return nil, rep, err
	}
	res := baseResult(jb.entry.g, rep)
	for _, st := range states {
		if st.Depth != algorithms.Infinity {
			res.Reached++
		}
	}
	res.Values = pickValues(jb.entry.g, jb.params.Vertices,
		func(i int) float64 { return float64(states[i].Depth) },
		func(i int) *uint64 {
			if states[i].Parent == algorithms.Infinity {
				return nil
			}
			p := uint64(states[i].Parent)
			return &p
		})
	return res, rep, nil
}

func runLabels(ctx context.Context, s *Service, jb *Job, g *graph.Graph) (*Result, core.Report, error) {
	labels, rep, err := runProgram(ctx, s, jb, g,
		algorithms.HashminProgram(),
		pregelplus.Uint32Codec{}, pregelplus.Uint32Codec{})
	if err != nil {
		return nil, rep, err
	}
	res := baseResult(g, rep)
	res.Components = algorithms.ComponentCount(labels)
	res.Values = pickValues(g, jb.params.Vertices, func(i int) float64 { return float64(labels[i]) }, nil)
	return res, rep, nil
}

func runHashmin(ctx context.Context, s *Service, jb *Job) (*Result, core.Report, error) {
	return runLabels(ctx, s, jb, jb.entry.g)
}

func runWCC(ctx context.Context, s *Service, jb *Job) (*Result, core.Report, error) {
	needIn := s.opts.Engine.Direction != core.DirectionPush || jb.params.Direction != ""
	sym := jb.entry.symmetrized(needIn)
	return runLabels(ctx, s, jb, sym)
}
