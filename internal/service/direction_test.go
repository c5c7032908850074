package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ipregel/internal/core"
	"ipregel/internal/gen"
	"ipregel/internal/graph"
)

func closeService(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("close: %v", err)
	}
}

// inEdgeGraph builds a test graph loaded with in-edges, as ipregeld
// does under -direction pull|adaptive.
func inEdgeGraph(t *testing.T, spec string) *graph.Graph {
	t.Helper()
	g, err := gen.ByName(spec, gen.PresetParams{Divisor: 1, BuildInEdges: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDirectionParamParity: the same program submitted under push, pull
// and adaptive transports returns identical results, and the canonical
// param keys the cache correctly (explicit template default hits the
// cached entry of the omitted field; a different direction misses).
func TestDirectionParamParity(t *testing.T) {
	const spec = "rmat:8:4"
	s := New(Options{})
	if err := s.AddGraph(spec, inEdgeGraph(t, spec), "generated"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeService(t, s) })

	submit := func(program, direction string, p Params) JobView {
		t.Helper()
		p.Direction = direction
		v, err := s.Submit(JobRequest{Graph: spec, Program: program, Params: p})
		if err != nil {
			t.Fatalf("%s/%s: %v", program, direction, err)
		}
		v = waitTerminal(t, s, v.ID)
		if v.State != StateDone {
			t.Fatalf("%s/%s: state %s (%s)", program, direction, v.State, v.Error)
		}
		return v
	}

	base := submit("pagerank", "", Params{Rounds: 10, Top: 3})
	for _, dir := range []string{"pull", "adaptive"} {
		v := submit("pagerank", dir, Params{Rounds: 10, Top: 3})
		if v.Cached {
			t.Fatalf("pagerank/%s: unexpected cache hit across directions", dir)
		}
		if !sameRank(v.Result.RankSum, base.Result.RankSum) || v.Result.Supersteps != base.Result.Supersteps || v.Result.Messages != base.Result.Messages {
			t.Fatalf("pagerank/%s: result diverged from push: %+v vs %+v", dir, v.Result, base.Result)
		}
		for i, tv := range v.Result.Top {
			if tv.ID != base.Result.Top[i].ID || !sameRank(tv.Value, base.Result.Top[i].Value) {
				t.Fatalf("pagerank/%s: top[%d] = %+v, push had %+v", dir, i, tv, base.Result.Top[i])
			}
		}
	}

	// Explicit "push" equals the template default, so it canonicalises
	// to the omitted form and is served from the cache.
	if v := submit("pagerank", "push", Params{Rounds: 10, Top: 3}); !v.Cached {
		t.Fatal("explicit template-default direction should hit the omitted-field cache entry")
	}

	// WCC runs on the lazily symmetrized graph: a push job first (builds
	// it without in-edges), then an adaptive job (upgrades it in place).
	wccPush := submit("wcc", "", Params{})
	wccAdaptive := submit("wcc", "adaptive", Params{})
	if wccPush.Result.Components != wccAdaptive.Result.Components {
		t.Fatalf("wcc components diverged: push %d, adaptive %d",
			wccPush.Result.Components, wccAdaptive.Result.Components)
	}
}

// TestDirectionParamValidation: bad values and graphs without in-edges
// are rejected at submission, before any job is enqueued.
func TestDirectionParamValidation(t *testing.T) {
	s := newTestService(t, Options{}, "ring:64") // loaded WITHOUT in-edges
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"unknown direction", JobRequest{Graph: "ring:64", Program: "pagerank", Params: Params{Direction: "sideways"}}, "params.direction"},
		{"pull without in-edges", JobRequest{Graph: "ring:64", Program: "pagerank", Params: Params{Direction: "pull"}}, "in-edges"},
		{"adaptive without in-edges", JobRequest{Graph: "ring:64", Program: "sssp", Params: Params{Source: u64p(1), Direction: "adaptive"}}, "in-edges"},
	}
	for _, tc := range cases {
		_, err := s.Submit(tc.req)
		var reqErr *RequestError
		if err == nil || !errors.As(err, &reqErr) {
			t.Fatalf("%s: err = %v, want RequestError", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// WCC is exempt: it runs on the symmetrized graph, which builds
	// in-edges on demand.
	v, err := s.Submit(JobRequest{Graph: "ring:64", Program: "wcc", Params: Params{Direction: "pull"}})
	if err != nil {
		t.Fatalf("wcc with direction on an in-edge-less graph: %v", err)
	}
	if v = waitTerminal(t, s, v.ID); v.State != StateDone {
		t.Fatalf("wcc pull job: state %s (%s)", v.State, v.Error)
	}
}

// TestDirectionTemplateValidation: the engine-template direction gates
// AddGraph, and a pull-only template (the broadcast version) takes
// per-job overrides like any other: each job builds its own engine.
func TestDirectionTemplateValidation(t *testing.T) {
	s := New(Options{Engine: core.Config{Direction: core.DirectionAdaptive}})
	if err := s.AddGraph("g", testGraph(t, "ring:64"), "generated"); err == nil ||
		!strings.Contains(err.Error(), "in-edges") {
		t.Fatalf("adaptive template accepted an in-edge-less graph: %v", err)
	}
	if err := s.AddGraph("g", inEdgeGraph(t, "ring:64"), "generated"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeService(t, s) })

	// Adaptive is the template default here, so an explicit "adaptive"
	// canonicalises away and "push" is a real override.
	v, err := s.Submit(JobRequest{Graph: "g", Program: "hashmin", Params: Params{Direction: "adaptive"}})
	if err != nil {
		t.Fatal(err)
	}
	if v = waitTerminal(t, s, v.ID); v.State != StateDone {
		t.Fatalf("hashmin under adaptive template: %s (%s)", v.State, v.Error)
	}
	if v2, err := s.Submit(JobRequest{Graph: "g", Program: "hashmin"}); err != nil {
		t.Fatal(err)
	} else if v2 = waitTerminal(t, s, v2.ID); !v2.Cached {
		t.Fatal("omitted direction should share the explicit template-default cache entry")
	}

	pullOnly := New(Options{Engine: core.Config{Direction: core.DirectionPull}})
	if err := pullOnly.AddGraph("g", testGraph(t, "ring:64"), "generated"); err == nil ||
		!strings.Contains(err.Error(), "in-edges") {
		t.Fatalf("pull template accepted an in-edge-less graph: %v", err)
	}
	if err := pullOnly.AddGraph("g", inEdgeGraph(t, "ring:64"), "generated"); err != nil {
		t.Fatal(err)
	}
	if err := pullOnly.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeService(t, pullOnly) })
	pulled := waitSubmitted(t, pullOnly, JobRequest{Graph: "g", Program: "pagerank", Params: Params{Rounds: 5}})
	pushed := waitSubmitted(t, pullOnly, JobRequest{Graph: "g", Program: "pagerank", Params: Params{Rounds: 5, Direction: "push"}})
	if pushed.Cached || !sameRank(pushed.Result.RankSum, pulled.Result.RankSum) || pushed.Result.Messages != pulled.Result.Messages {
		t.Fatalf("push override on a pull template: %+v, pull-only run %+v", pushed.Result, pulled.Result)
	}
}

// waitSubmitted submits req and waits for it to finish successfully.
func waitSubmitted(t *testing.T, s *Service, req JobRequest) JobView {
	t.Helper()
	v, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if v = waitTerminal(t, s, v.ID); v.State != StateDone {
		t.Fatalf("%s/%q: state %s (%s)", req.Program, req.Params.Direction, v.State, v.Error)
	}
	return v
}
