package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented). Times are
// nanoseconds since the tracer's epoch. Spans of one operation share Op:
// "rep3" for an engine repetition, the job id for a service job.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0 = root
	Name   string         `json:"name"`
	Op     string         `json:"op"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Counts map[string]any `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code without the spans.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name, op string, parent int, start, end time.Time, counts map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Counts: counts,
	})
	return id
}

// open reserves a span whose children are recorded before it ends; close
// fills in its end time.
func (t *tracer) open(name, op string, parent int, start time.Time) int {
	return t.add(name, op, parent, start, start, nil)
}

func (t *tracer) close(id int, end time.Time, counts map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.spans[id-1].Counts = counts
}

// durations returns the length of every span called name, in seconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// childTotal returns, for span id, the summed length of its direct
// children in seconds.
func (t *tracer) childTotals() map[int]float64 {
	tot := make(map[int]float64)
	if t == nil {
		return tot
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			tot[s.Parent] += float64(s.End-s.Start) / 1e9
		}
	}
	return tot
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimeTable prints, per span name, the call count, total time and
// self time (a span's length minus its direct children's).
func (t *tracer) selfTimeTable(w io.Writer) {
	type row struct {
		name        string
		n           int
		total, self float64
	}
	children := t.childTotals()
	rows := map[string]*row{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		d := float64(s.End-s.Start) / 1e9
		r.n++
		r.total += d
		if self := d - children[s.ID]; self > 0 {
			r.self += self
		}
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "%-30s %8s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, r := range list {
		fmt.Fprintf(w, "%-30s %8d %12.6f %12.6f\n", r.name, r.n, r.total, r.self)
	}
}
