package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"ipregel/internal/core"
)

// TraceSchema identifies the JSONL trace format; every event line
// carries it so a consumer can validate arbitrary (including truncated
// or concatenated) streams line by line.
const TraceSchema = "ipregel-trace/1"

// Event types.
const (
	EventRunStart  = "run_start"
	EventSuperstep = "superstep"
	EventAbort     = "abort"
	EventRunEnd    = "run_end"
)

// Event is one JSONL trace record. A run emits: one run_start, one
// superstep event per executed superstep (a trailing one may be marked
// partial), at most one abort, and exactly one run_end. A stream may
// hold several runs — a recovered run's attempts, each opened by its own
// run_start. Together the events replay into the last run's core.Report
// (see ReplayReport and cmd/ipregel-trace).
type Event struct {
	Schema string `json:"schema"`
	Type   string `json:"type"`

	// Version is set on run_end; FirstSuperstep on run_start and run_end.
	Version        string `json:"version,omitempty"`
	FirstSuperstep int    `json:"first_superstep,omitempty"`

	// superstep (absolute numbering; on abort, the first superstep that
	// did not complete)
	Superstep    int     `json:"superstep,omitempty"`
	Ran          int64   `json:"ran,omitempty"`
	Messages     uint64  `json:"messages,omitempty"`
	Active       int64   `json:"active,omitempty"`
	NextFrontier int64   `json:"next_frontier,omitempty"`
	DurationNS   int64   `json:"duration_ns,omitempty"`
	Partial      bool    `json:"partial,omitempty"`
	WorkerBusyNS []int64 `json:"worker_busy_ns,omitempty"`
	// direction model (Config.Direction); Direction is the
	// core.Direction name and omitted when push (the zero direction), so
	// pre-direction traces replay unchanged.
	Direction         string `json:"direction,omitempty"`
	DirectionSwitched bool   `json:"direction_switched,omitempty"`
	// SlotOrder marks a bypass superstep that ran in slot order; omitted
	// when false, so traces written before it existed replay unchanged.
	SlotOrder bool `json:"slot_order,omitempty"`

	// abort
	Reason string `json:"reason,omitempty"`

	// run_end
	Supersteps      int    `json:"supersteps,omitempty"`
	TotalMessages   uint64 `json:"total_messages,omitempty"`
	TotalDurationNS int64  `json:"total_duration_ns,omitempty"`
	Converged       bool   `json:"converged,omitempty"`
}

// TraceWriter is a core.Observer that streams one JSONL event per
// lifecycle hook to an io.Writer. A writer serves one run at a time —
// several runs in sequence, such as a recovery supervisor's attempts,
// each open with their own run_start. Writes are mutex-serialised so
// Flush may race the run's hooks.
type TraceWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	enc     *json.Encoder
	err     error
	started bool // this run's run_start emitted
}

// NewTraceWriter wraps w; call Flush (or Close on the underlying file)
// after the run. Encoding errors are sticky and returned by Flush —
// observer hooks have no error channel, and a dying trace must not kill
// the computation it observes.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	return &TraceWriter{bw: bw, enc: json.NewEncoder(bw)}
}

var _ core.Observer = (*TraceWriter)(nil)

func (t *TraceWriter) emit(ev Event) {
	ev.Schema = TraceSchema
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(ev)
}

// OnSuperstepStart emits the run_start event at the run's first
// superstep (absolute numbering makes "first" explicit only via run
// state, so the writer tracks whether this run has started).
func (t *TraceWriter) OnSuperstepStart(superstep int) {
	if !t.started {
		t.started = true
		t.emit(Event{Type: EventRunStart, FirstSuperstep: superstep})
	}
}

// OnSuperstepEnd emits one superstep event.
func (t *TraceWriter) OnSuperstepEnd(superstep int, s core.StepStats) {
	ev := Event{
		Type:         EventSuperstep,
		Superstep:    superstep,
		Ran:          s.Ran,
		Messages:     s.Messages,
		Active:       s.Active,
		NextFrontier: s.NextFrontier,
		DurationNS:   int64(s.Duration),
		Partial:      s.Partial,
	}
	if s.Direction != core.DirectionPush {
		ev.Direction = s.Direction.String()
	}
	ev.DirectionSwitched = s.DirectionSwitched
	ev.SlotOrder = s.SlotOrder
	if len(s.WorkerBusy) > 0 {
		ev.WorkerBusyNS = make([]int64, len(s.WorkerBusy))
		for i, b := range s.WorkerBusy {
			ev.WorkerBusyNS[i] = int64(b)
		}
	}
	t.emit(ev)
}

// OnRunEnd emits an aborted run's abort event, then the run_end event,
// and flushes.
func (t *TraceWriter) OnRunEnd(r core.Report, err error) {
	if r.Aborted {
		t.emit(Event{Type: EventAbort, Superstep: r.Supersteps, Reason: r.AbortReason})
	}
	t.emit(Event{
		Type:            EventRunEnd,
		Version:         r.Version,
		FirstSuperstep:  r.FirstSuperstep,
		Supersteps:      r.Supersteps,
		TotalMessages:   r.TotalMessages,
		TotalDurationNS: int64(r.Duration),
		Converged:       r.Converged,
	})
	t.started = false
	t.Flush()
}

// Flush drains the buffer and reports the first error the writer hit.
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	t.err = t.bw.Flush()
	return t.err
}

// ReadTrace parses and validates a JSONL trace stream: every line must
// be valid JSON carrying the supported schema and a known event type,
// superstep events must be consecutive in absolute numbering, and a
// partial superstep record may only be a run's last one; a run_start
// begins a new run. Fields this version
// does not know — the shard, local-combine and hub-task counters older
// engines wrote — are ignored.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	line := 0
	wantStep := -1
	sawPartial := false
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		if ev.Schema != TraceSchema {
			return nil, fmt.Errorf("telemetry: trace line %d: schema %q, want %q", line, ev.Schema, TraceSchema)
		}
		switch ev.Type {
		case EventRunStart:
			wantStep, sawPartial = ev.FirstSuperstep, false
		case EventSuperstep:
			if sawPartial {
				return nil, fmt.Errorf("telemetry: trace line %d: superstep event after a partial record", line)
			}
			if wantStep >= 0 && ev.Superstep != wantStep {
				return nil, fmt.Errorf("telemetry: trace line %d: superstep %d, want %d (events must be consecutive)", line, ev.Superstep, wantStep)
			}
			wantStep = ev.Superstep
			if ev.Partial {
				sawPartial = true
			} else {
				wantStep++
			}
		case EventAbort, EventRunEnd:
		default:
			return nil, fmt.Errorf("telemetry: trace line %d: unknown event type %q", line, ev.Type)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading trace: %w", err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("telemetry: empty trace")
	}
	return events, nil
}

// ReplayReport reconstructs the last run's core.Report from its trace
// events, inverse of the TraceWriter: the result renders the same Table
// and summary line the live run produced (durations come from the
// recorded nanosecond fields). A stream of several runs is a recovered
// run's attempts, so Attempts and Recoveries count them.
func ReplayReport(events []Event) (core.Report, error) {
	var r core.Report
	sawEnd := false
	runs := 0
	for _, ev := range events {
		switch ev.Type {
		case EventRunStart:
			runs++
			r, sawEnd = core.Report{FirstSuperstep: ev.FirstSuperstep}, false
		case EventSuperstep:
			step := core.StepStats{
				Ran:          ev.Ran,
				Messages:     ev.Messages,
				Active:       ev.Active,
				NextFrontier: ev.NextFrontier,
				Duration:     time.Duration(ev.DurationNS),
				Partial:      ev.Partial,
			}
			if ev.Direction != "" {
				dir, err := core.ParseDirection(ev.Direction)
				if err != nil {
					return core.Report{}, fmt.Errorf("telemetry: superstep %d: %w", ev.Superstep, err)
				}
				step.Direction = dir
			}
			step.DirectionSwitched = ev.DirectionSwitched
			step.SlotOrder = ev.SlotOrder
			for _, b := range ev.WorkerBusyNS {
				step.WorkerBusy = append(step.WorkerBusy, time.Duration(b))
			}
			r.Steps = append(r.Steps, step)
			r.TotalMessages += ev.Messages
		case EventAbort:
			r.Aborted = true
			r.AbortReason = ev.Reason
		case EventRunEnd:
			sawEnd = true
			r.Version = ev.Version
			r.FirstSuperstep = ev.FirstSuperstep
			r.Supersteps = ev.Supersteps
			r.Duration = time.Duration(ev.TotalDurationNS)
			r.Converged = ev.Converged
			if r.TotalMessages != ev.TotalMessages {
				return core.Report{}, fmt.Errorf("telemetry: trace is inconsistent: superstep events sum to %d messages, run_end says %d", r.TotalMessages, ev.TotalMessages)
			}
		}
	}
	if !sawEnd {
		// Live or truncated trace: synthesise the summary from the steps.
		completed := 0
		for _, s := range r.Steps {
			if !s.Partial {
				completed++
			}
			r.Duration += s.Duration
		}
		r.Supersteps = r.FirstSuperstep + completed
	}
	if runs > 1 {
		r.Attempts, r.Recoveries = runs, runs-1
	}
	return r, nil
}
