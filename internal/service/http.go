package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"ipregel/internal/telemetry"
)

// maxRequestBytes bounds POST /v1/jobs bodies; a job request is a few
// hundred bytes plus at most maxValueRequests vertex identifiers.
const maxRequestBytes = 1 << 20

// submitWait is how long POST /v1/jobs holds an admitted job's request
// for its result. A job that ends within it is answered in the POST
// itself, not at the client's next poll; a slower one gets its 202
// after it. Admission never waits, so at most Queue + Workers requests
// are held at once (DESIGN.md §12.4).
const submitWait = 50 * time.Millisecond

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/jobs        submit a job (200 when it ends within submitWait,
//	                     a cache hit among them; else 202 queued/running)
//	GET  /v1/jobs        list remembered jobs, newest first
//	GET  /v1/jobs/{id}   one job, including its result when finished
//	GET  /v1/graphs      the resident graphs
//	GET  /healthz        liveness + queue occupancy
//	     /metrics        the shared collector, with per-job labels
//	     /debug/...      expvar and pprof (telemetry.Handler)
//
// Telemetry is mounted from the same collector the jobs report into,
// so a scrape during concurrent jobs sees per-job attributed series.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	tel := telemetry.Handler(s.Collector())
	mux.Handle("GET /metrics", tel)
	mux.Handle("GET /debug/", tel)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jb, _, err := s.submit(req)
	if err != nil {
		var reqErr *RequestError
		switch {
		case errors.As(err, &reqErr):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	view := s.wait(r.Context(), jb, submitWait)
	status := http.StatusAccepted
	if view.State.terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job (finished jobs are forgotten beyond the retention window)"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.Graphs()})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.Counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"graphs":        len(s.Graphs()),
		"queued":        queued,
		"running":       running,
		"workers":       s.opts.Workers,
		"cache_entries": s.CacheLen(),
	})
}
