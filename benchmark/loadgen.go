package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"ipregel/internal/service"
)

// The load generator runs as a process of its own (the same binary with
// --loadgen): clients of a daemon are other processes, and inside the
// server's process the Go scheduler made the generator wait for the
// engines' threads — its requests left up to 10 ms late. The parent writes
// a loadPlan to its standard input and reads a loadReport from its
// standard output.

type loadPlan struct {
	URL       string        `json:"url"`
	PollEvery time.Duration `json:"poll_every_ns"`
	Drain     time.Duration `json:"drain_ns"` // how long to keep polling after the last request
	Jobs      []loadJob     `json:"jobs"`
}

type loadJob struct {
	Due  time.Duration   `json:"due_ns"` // from the start of traffic
	Body json.RawMessage `json:"body"`
}

// loadResult is what happened to one request. Times are Unix nanoseconds;
// Done is when a poll (or, for a cache hit, the POST's answer) showed the
// job in a terminal state.
type loadResult struct {
	Sent     int64           `json:"sent"`
	Answered int64           `json:"answered"`
	Done     int64           `json:"done"`
	Status   int             `json:"status"`
	Err      string          `json:"err,omitempty"`
	Terminal bool            `json:"terminal"`
	View     service.JobView `json:"view"`
}

type loadReport struct {
	Start          int64        `json:"start"`
	MaxOutstanding int          `json:"max_outstanding"`
	Jobs           []loadResult `json:"jobs"`
}

// submitConns bounds the submitter's connections; requests due while all
// are busy wait for one, and that wait counts in their latency.
const submitConns = 8

func isTerminal(s service.JobState) bool {
	return s == service.StateDone || s == service.StateFailed || s == service.StateCancelled
}

// loadgen is the child's body: it submits each request at its due time
// whatever the service does — an open loop, because analysts submit
// independently — and polls every outstanding job.
func loadgen(stdin io.Reader, stdout io.Writer) error {
	var plan loadPlan
	if err := json.NewDecoder(stdin).Decode(&plan); err != nil {
		return err
	}
	// Each request leaves at its due time on whichever of a few submitter
	// connections is free: had they shared one, a slow answer would hold
	// back the next request and the service's delay would pass for the
	// generator's. All polls share one connection.
	client := func(conns int) *http.Client {
		return &http.Client{Timeout: plan.Drain, Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	}
	submitter, poller := client(submitConns), client(1)
	defer submitter.CloseIdleConnections()
	defer poller.CloseIdleConnections()

	results := make([]loadResult, len(plan.Jobs))
	var mu sync.Mutex
	outstanding := map[string]*loadResult{}
	maxOutstanding := 0
	post := func(res *loadResult, body []byte) {
		resp, err := submitter.Post(plan.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			res.Err = err.Error()
			return
		}
		res.Status = resp.StatusCode
		answer, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		res.Answered = time.Now().UnixNano()
		if err != nil {
			res.Err = err.Error()
			return
		}
		if res.Status != http.StatusOK && res.Status != http.StatusAccepted {
			return
		}
		if err := json.Unmarshal(answer, &res.View); err != nil {
			res.Err = err.Error()
			return
		}
		if isTerminal(res.View.State) { // a cache hit is born done
			res.Done, res.Terminal = res.Answered, true
			return
		}
		mu.Lock()
		outstanding[res.View.ID] = res
		maxOutstanding = max(maxOutstanding, len(outstanding))
		mu.Unlock()
	}

	submitted := make(chan struct{})
	start := time.Now().Add(50 * time.Millisecond)
	go func() {
		defer close(submitted)
		var posts sync.WaitGroup
		for i, jb := range plan.Jobs {
			res := &results[i]
			time.Sleep(time.Until(start.Add(jb.Due)))
			res.Sent = time.Now().UnixNano()
			posts.Add(1)
			go func() {
				defer posts.Done()
				post(res, jb.Body)
			}()
		}
		posts.Wait()
	}()

	tick := time.NewTicker(plan.PollEvery)
	defer tick.Stop()
	var giveUp <-chan time.Time
	sending := submitted
poll:
	for {
		select {
		case <-sending:
			sending, giveUp = nil, time.After(plan.Drain)
		case <-giveUp:
			break poll
		case <-tick.C:
		}
		mu.Lock()
		pending := make([]*loadResult, 0, len(outstanding))
		for _, res := range outstanding {
			pending = append(pending, res)
		}
		mu.Unlock()
		if sending == nil && len(pending) == 0 {
			break
		}
		for _, res := range pending {
			resp, err := poller.Get(plan.URL + "/v1/jobs/" + res.View.ID)
			if err != nil {
				continue // a job that never answers again stays not terminal
			}
			var view service.JobView
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !isTerminal(view.State) {
				continue
			}
			res.Done, res.View, res.Terminal = time.Now().UnixNano(), view, true
			mu.Lock()
			delete(outstanding, view.ID)
			mu.Unlock()
		}
	}
	<-submitted
	return json.NewEncoder(stdout).Encode(loadReport{Start: start.UnixNano(), MaxOutstanding: maxOutstanding, Jobs: results})
}
