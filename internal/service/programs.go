package service

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/graph"
)

// programs are the apps of the app table (internal/algorithms/apps.go)
// that the service answers, sorted.
var programs = []string{"bfs", "hashmin", "pagerank", "pagerank-converged", "sssp", "wcc"}

// Programs lists the programs the service answers, sorted.
func Programs() []string { return slices.Clone(programs) }

// --- parameter canonicalisation ---------------------------------------

const (
	maxTop           = 100
	maxValueRequests = 4096
)

// canon validates and normalises a request's params for app: the table
// canonicalises the program's own parameters, and the service the ones
// that shape its response. The canonical form feeds both execution and
// the cache key.
func canon(g *graph.Graph, app *algorithms.App, p Params) (Params, error) {
	ap, err := app.Canon(g, p.program())
	if err != nil {
		return Params{}, reqErrorf("params.%v", err)
	}
	out := Params{Rounds: ap.Rounds, Tolerance: ap.Tolerance, Source: ap.Source}
	switch {
	case p.Top != 0 && app.Answer != algorithms.Ranks:
		return Params{}, reqErrorf("params.top is not used by %s", app.Name)
	case p.Top < 0:
		return Params{}, reqErrorf("params.top must be >= 0")
	case p.Top > maxTop:
		return Params{}, reqErrorf("params.top %d exceeds the maximum %d", p.Top, maxTop)
	}
	out.Top = p.Top
	if out.Vertices, err = canonVertices(g, p.Vertices); err != nil {
		return Params{}, err
	}
	return out, nil
}

// program is the part of p the app table reads.
func (p Params) program() algorithms.Params {
	return algorithms.Params{Rounds: p.Rounds, Tolerance: p.Tolerance, Source: p.Source}
}

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

// canonDirection validates the cross-program direction param (it picks
// the engine transport, so every program accepts it and the table never
// sees it). Canonical form: the empty string when the request matches
// the engine template's default, so an explicit default shares its cache
// key with the omitted field.
func (s *Service) canonDirection(entry *graphEntry, app *algorithms.App, raw string) (string, error) {
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
	// A symmetric app runs on the lazily symmetrized graph, which can
	// build in-edges on demand; every other app runs on the resident
	// graph as loaded.
	if dir != core.DirectionPush && !app.Symmetric && !entry.g.HasInEdges() {
		return "", reqErrorf("params.direction %q needs graph %q loaded with in-edges", dir, entry.name)
	}
	return dir.String(), nil
}

// --- execution ---------------------------------------------------------

// jobConfig derives the job's engine Config from the service template:
// per-job limits overwrite Threads and MaxSupersteps, the canonical
// direction param (if set) overrides the transport, the job's
// telemetry scope joins the observers, and SelectionBypass is stripped
// for programs that do not vote to halt every superstep.
func jobConfig(s *Service, jb *Job) core.Config {
	cfg := s.opts.Engine
	cfg.Threads = jb.limits.Threads
	cfg.MaxSupersteps = jb.limits.MaxSupersteps
	cfg.SelectionBypass = cfg.SelectionBypass && jb.app.HaltsEverySuperstep
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

// run executes one job: directly when the service has no checkpoint
// root, else under the crash-recovery supervisor with a FileSink on the
// job's own directory <run>/<job-id>, so concurrent jobs can never prune
// each other's checkpoints. The sink makes that directory at the job's
// first checkpoint; after success it is deleted if it was made (a
// finished job has nothing to resume), and after failure or
// cancellation it is kept so the work is recoverable.
func (s *Service) run(ctx context.Context, jb *Job) (*Result, core.Report, error) {
	cfg := jobConfig(s, jb)
	g := jb.entry.g
	if jb.app.Symmetric {
		g = jb.entry.symmetrized(cfg.Direction != core.DirectionPush)
	}
	var ck *algorithms.Checkpointing
	if s.opts.CheckpointRoot != "" {
		sink, err := core.NewFileSink(filepath.Join(s.runDir, jb.id), s.opts.CheckpointKeep)
		if err != nil {
			return nil, core.Report{}, err
		}
		defer sink.Close()
		ck = &algorithms.Checkpointing{Sink: sink, Every: s.opts.CheckpointEvery, Recovery: core.RecoveryOptions{
			MaxAttempts: s.opts.RecoverAttempts,
			OnRetry:     func(int, error) { jb.scope.RecordRecovery() },
		}}
	}
	r, err := jb.app.Run(ctx, g, cfg, jb.params.program(), ck)
	if err != nil {
		return nil, r.Report, err
	}
	if ck != nil {
		ck.Sink.Close()
		if ck.Sink.Made() {
			_ = os.RemoveAll(ck.Sink.Dir())
		}
	}
	res := &Result{
		Supersteps:   r.Report.Supersteps,
		Messages:     r.Report.TotalMessages,
		EngineMillis: float64(r.Report.Duration) / float64(time.Millisecond),
		VertexCount:  g.N(),
		Components:   r.Components,
		Reached:      r.Reached,
		RankSum:      r.RankSum,
		ConvergedIn:  r.ConvergedIn,
		Values:       pickValues(g, jb.params.Vertices, r.Value, r.Parent),
	}
	if jb.params.Top > 0 {
		res.Top = topRanks(g, r.Ranks, jb.params.Top)
	}
	return res, r.Report, nil
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
