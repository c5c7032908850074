package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseGraphArg(t *testing.T) {
	a, err := parseGraphArg("wiki=rmat:16:8", false)
	if err != nil || a.name != "wiki" || a.src != "rmat:16:8" || a.file {
		t.Fatalf("named spec: %+v, %v", a, err)
	}
	a, err = parseGraphArg("ring:64", false)
	if err != nil || a.name != "ring:64" || a.src != "ring:64" {
		t.Fatalf("bare spec names itself: %+v, %v", a, err)
	}
	a, err = parseGraphArg("usa=/data/usa.gr", true)
	if err != nil || a.name != "usa" || a.src != "/data/usa.gr" || !a.file {
		t.Fatalf("named file: %+v, %v", a, err)
	}
	if _, err := parseGraphArg("=spec", false); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := parseGraphArg("name=", false); err == nil {
		t.Fatal("empty source accepted")
	}
}

func TestRunValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "no graphs"},
		{[]string{"-graph", "g=nosuchspec"}, "unknown graph spec"},
		{[]string{"-graph", "g=ring:64", "-combiner", "bogus"}, "unknown combiner"},
		{[]string{"-graph", "g=ring:64", "-combiner", "broadcast"}, "direction pull"},
		// Flags of the removed shard layer, addressing option and sender
		// cache are usage errors, not accepted and ignored.
		{[]string{"-graph", "g=ring:64", "-shards", "4"}, "flag provided but not defined: -shards"},
		{[]string{"-graph", "g=ring:64", "-addressing", "offset"}, "flag provided but not defined: -addressing"},
		{[]string{"-graph", "g=ring:64", "-sender-combining"}, "flag provided but not defined: -sender-combining"},
		// The service reads zero as its default: zero or negative values
		// are refused, naming the flag, not replaced.
		{[]string{"-graph", "g=ring:64", "-max-supersteps", "0"}, "-max-supersteps must be at least 1"},
		{[]string{"-graph", "g=ring:64", "-checkpoint-every", "-1"}, "-checkpoint-every must be at least 1"},
		{[]string{"-graph", "g=ring:64", "-checkpoint-keep", "0"}, "-checkpoint-keep must be at least 1"},
		{[]string{"-graph", "g=ring:64", "-recover-attempts", "0"}, "-recover-attempts must be at least 1"},
		{[]string{"-graph", "g=ring:64", "-workers", "0"}, "-workers must be at least 1"},
		{[]string{"-graph", "g=ring:64", "-queue", "-5"}, "-queue must be at least 1"},
		// core.New would read a negative thread count as GOMAXPROCS.
		{[]string{"-graph", "g=ring:64", "-threads", "-3"}, "-threads must be at least 0"},
		{[]string{"-graph", "g=ring:64", "-cache", "0"}, "-cache must not be 0"},
	} {
		var buf bytes.Buffer
		err := run(tc.args, &buf, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("args %v: err = %v, want mention of %q", tc.args, err, tc.want)
		}
	}
}

// TestCheckpointRootCheckedFirst: job checkpoint directories are made
// only at a job's first checkpoint, so the daemon checks -checkpoint-root
// itself; a path it cannot make is refused, naming the flag, before any
// graph loads or job runs.
func TestCheckpointRootCheckedFirst(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-graph", "g=ring:64", "-listen", "127.0.0.1:0",
		"-checkpoint-root", filepath.Join(file, "ckpt")}, &buf, nil)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-root") {
		t.Fatalf("-checkpoint-root under a regular file: err = %v, want one naming the flag", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("the daemon got past the root check; it printed %q", buf.String())
	}
}

// syncBuffer lets the test read daemon output while run() writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var servingRe = regexp.MustCompile(`ipregeld: serving on (\S+)`)

// TestDaemonEndToEnd boots the daemon on an ephemeral port, exercises a
// job answered in its own POST plus a cache hit over real HTTP, then
// stops it with a POST held, via the test hook (the same path a signal
// takes), and requires a clean exit and an answered POST.
func TestDaemonEndToEnd(t *testing.T) {
	var out syncBuffer
	stop := make(chan struct{})
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{
			"-listen", "127.0.0.1:0",
			"-graph", "g=ring:128",
			"-checkpoint-root", "off",
		}, &out, stop)
	}()

	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if m := servingRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-runErr:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"graph":"g","program":"sssp","params":{"source":0,"vertices":[64]}}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Cached bool   `json:"cached"`
		Result *struct {
			Reached int `json:"reached"`
		} `json:"result"`
	}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The SSSP ends within the submission window, so its POST answers it.
	if resp.StatusCode != 200 || view.State != "done" || view.Cached {
		t.Fatalf("submit: %d %+v, want 200 with the finished job", resp.StatusCode, view)
	}
	if view.Result == nil || view.Result.Reached != 128 {
		t.Fatalf("result: %+v, want all 128 ring vertices reached", view.Result)
	}

	// Identical resubmission is a cache hit (200, already done).
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var hit struct {
		State  string `json:"state"`
		Cached bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !hit.Cached || hit.State != "done" {
		t.Fatalf("resubmission: %d %+v, want a cache hit", resp.StatusCode, hit)
	}

	// A job that cannot end within the submission window holds its POST
	// while the daemon is told to stop: the POST is still answered, and
	// the daemon still exits.
	held := make(chan int, 1)
	go func() {
		r, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"graph":"g","program":"pagerank","params":{"rounds":90000},"limits":{"deadline_ms":20000}}`))
		if err != nil {
			held <- 0
			return
		}
		r.Body.Close()
		held <- r.StatusCode
	}()
	for {
		var list struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		r, err := http.Get(base + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&list)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the long job was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("shutdown: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never exited:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ipregeld: bye") {
		t.Fatalf("no clean shutdown marker:\n%s", out.String())
	}
	if code := <-held; code != 202 {
		t.Fatalf("POST held across the shutdown answered %d, want 202", code)
	}
}
