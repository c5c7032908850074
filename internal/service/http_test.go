package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPJobLifecycle drives the whole API end to end over real HTTP:
// graphs listing, a fast job answered in its own POST, the job record,
// result payload, cache-hit status code, and the telemetry mounts.
func TestHTTPJobLifecycle(t *testing.T) {
	s := newTestService(t, Options{}, "ring:64")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var graphs struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := getJSON(t, ts.URL+"/v1/graphs", &graphs); code != 200 {
		t.Fatalf("graphs: status %d", code)
	}
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].Name != "ring:64" || graphs.Graphs[0].Vertices != 64 {
		t.Fatalf("graphs payload: %+v", graphs.Graphs)
	}

	// A job that ends within submitWait is answered in its own POST: 200,
	// terminal, with its result.
	resp, body := postJob(t, ts.URL, `{"graph":"ring:64","program":"sssp","params":{"source":0,"vertices":[0,1,63]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID == "" || view.State != StateDone || view.Cached || view.Result == nil {
		t.Fatalf("submit view: %+v", view)
	}
	var polled JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+view.ID, &polled); code != 200 || polled.State != StateDone || polled.Result == nil {
		t.Fatalf("poll: status %d, view %+v", code, polled)
	}
	// On a directed 64-ring from source 0, every vertex is reached and
	// vertex 63 is 63 hops away.
	if view.Result.Reached != 64 {
		t.Fatalf("reached = %d, want 64", view.Result.Reached)
	}
	if got := view.Result.Values[2]; got.ID != 63 || got.Value != 63 {
		t.Fatalf("vertex 63: %+v, want distance 63", got)
	}

	// Identical resubmission: 200 + cached, not 202.
	resp, body = postJob(t, ts.URL, `{"graph":"ring:64","program":"sssp","params":{"source":0,"vertices":[63,1,0,0]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit: status %d: %s", resp.StatusCode, body)
	}
	var hit JobView
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.State != StateDone || hit.Result == nil {
		t.Fatalf("cache hit view: %+v", hit)
	}

	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != 200 || len(list.Jobs) != 2 {
		t.Fatalf("job list: code=%d jobs=%d", code, len(list.Jobs))
	}

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: code=%d %v", code, health)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != 200 || !strings.Contains(string(mb), "ipregel_runs_total") {
		t.Fatalf("metrics mount broken: %d\n%s", mresp.StatusCode, mb)
	}
	if code := getJSON(t, ts.URL+"/debug/vars", nil); code != 200 {
		t.Fatalf("debug/vars: status %d", code)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := newTestService(t, Options{}, "ring:16")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"graph":"nope","program":"pagerank"}`, 400},
		{`{"graph":"ring:16","program":"sssp"}`, 400},
		{`{"graph":"ring:16","program":"pagerank","bogus":1}`, 400}, // unknown field
		{`not json`, 400},
	} {
		resp, body := postJob(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.want, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: error body %q not JSON with error field", tc.body, body)
		}
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/j999", nil); code != 404 {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
}

// TestHTTPQueueFull: a job that cannot finish is answered 202 queued
// once submitWait has passed, and admission control surfaces as 429 with
// Retry-After.
func TestHTTPQueueFull(t *testing.T) {
	s := New(Options{Queue: 1}) // never started: nothing drains the queue
	if err := s.AddGraph("g", testGraph(t, "ring:16"), ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, body := postJob(t, ts.URL, `{"graph":"g","program":"hashmin"}`)
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(body), `"state": "queued"`) {
		t.Fatalf("first submit: %d %s, want 202 queued", resp.StatusCode, body)
	}
	if held := time.Since(start); held < submitWait {
		t.Fatalf("first submit answered after %v, before the %v window", held, submitWait)
	}
	resp, body = postJob(t, ts.URL, `{"graph":"g","program":"wcc"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestMetricsCarryJobLabels: while jobs run, the mounted /metrics
// endpoint serves per-job labelled series from their scopes.
func TestMetricsCarryJobLabels(t *testing.T) {
	const spec = "rmat:10:8"
	s := newTestService(t, Options{Workers: 2}, spec)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	view, err := s.Submit(JobRequest{Graph: spec, Program: "pagerank",
		Params: Params{Rounds: 90000}, Limits: Limits{DeadlineMillis: 400}})
	if err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprintf(`{job=%q}`, view.ID)
	found := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !found {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		found = strings.Contains(string(b), want)
		time.Sleep(5 * time.Millisecond)
	}
	if !found {
		t.Fatalf("/metrics never showed %s while the job ran", want)
	}
	waitTerminal(t, s, view.ID)
}

// TestSubmitWaitReleases: a held submission is released by each of its
// job's terminal state, the window, its caller's context and Close. The
// window is an hour wherever something else must release the wait, so
// only that thing can.
func TestSubmitWaitReleases(t *testing.T) {
	released := func(t *testing.T, what string, views <-chan JobView) JobView {
		t.Helper()
		select {
		case v := <-views:
			return v
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not release the wait", what)
			return JobView{}
		}
	}
	waitAsync := func(s *Service, ctx context.Context, jb *Job, window time.Duration) <-chan JobView {
		views := make(chan JobView, 1)
		go func() { views <- s.wait(ctx, jb, window) }()
		return views
	}
	req := JobRequest{Graph: "ring:16", Program: "hashmin"}

	t.Run("terminal", func(t *testing.T) {
		s := newTestService(t, Options{}, "ring:16")
		jb, _, err := s.submit(req)
		if err != nil {
			t.Fatal(err)
		}
		v := released(t, "the job's end", waitAsync(s, context.Background(), jb, time.Hour))
		if v.State != StateDone || v.Result == nil || v.Result.Components != 1 {
			t.Fatalf("view after the job's end: %+v", v)
		}
		// A cache hit is born done: its wait returns at once.
		hit, _, err := s.submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v := released(t, "a cache hit", waitAsync(s, context.Background(), hit, time.Hour)); !v.Cached || v.State != StateDone {
			t.Fatalf("cache hit view: %+v", v)
		}
	})

	// A never-started service: nothing runs its jobs.
	idle := func(t *testing.T) (*Service, *Job) {
		s := New(Options{})
		if err := s.AddGraph("ring:16", testGraph(t, "ring:16"), ""); err != nil {
			t.Fatal(err)
		}
		jb, _, err := s.submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return s, jb
	}
	t.Run("window", func(t *testing.T) {
		s, jb := idle(t)
		defer s.Close(context.Background())
		start := time.Now()
		v := released(t, "the window", waitAsync(s, context.Background(), jb, 20*time.Millisecond))
		if held := time.Since(start); v.State != StateQueued || held < 20*time.Millisecond {
			t.Fatalf("after the window: state %s, held %v", v.State, held)
		}
	})
	t.Run("caller gone", func(t *testing.T) {
		s, jb := idle(t)
		defer s.Close(context.Background())
		ctx, cancel := context.WithCancel(context.Background())
		views := waitAsync(s, ctx, jb, time.Hour)
		cancel()
		if v := released(t, "the caller's context", views); v.State != StateQueued {
			t.Fatalf("after the caller left: %+v", v)
		}
	})
	t.Run("close", func(t *testing.T) {
		s, jb := idle(t)
		views := waitAsync(s, context.Background(), jb, time.Hour)
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		released(t, "Close", views)
		// Close ends the jobs no worker will run: each is cancelled,
		// and its done channel closed, before Close returns.
		select {
		case <-jb.done:
		default:
			t.Fatal("Close left the job's done channel open")
		}
		if v, _ := s.Job(jb.id); v.State != StateCancelled || !strings.Contains(v.Error, "shut down") {
			t.Fatalf("after Close: %+v", v)
		}
	})
}

// TestHTTPHeldSubmitsLeakNothing: POSTs held on a never-started service
// by clients that hang up, and then by clients Close releases, leave no
// goroutine behind once the server is gone.
func TestHTTPHeldSubmitsLeakNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Queue: 8})
	if err := s.AddGraph("g", testGraph(t, "ring:16"), ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	post := func(ctx context.Context, errs chan<- error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs",
			strings.NewReader(`{"graph":"g","program":"hashmin","no_cache":true}`))
		if err != nil {
			errs <- err
			return
		}
		resp, err := client.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errs <- err
	}
	// admitted waits until n jobs are registered, so every POST got past
	// admission before the test lets go of it.
	admitted := func(n int) {
		deadline := time.Now().Add(30 * time.Second)
		for len(s.Jobs()) < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d jobs admitted", len(s.Jobs()), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	const n = 3
	ctx, hangUp := context.WithCancel(context.Background())
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		go post(ctx, errs)
	}
	admitted(n)
	hangUp()
	for i := 0; i < n; i++ {
		<-errs // a hang-up or, had the window passed first, a 202
	}
	for i := 0; i < n; i++ {
		go post(context.Background(), errs)
	}
	admitted(2 * n)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("POST held at Close: %v", err)
		}
	}
	ts.Close()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
