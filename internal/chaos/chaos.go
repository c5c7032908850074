// Package chaos is a deterministic fault injector for exercising the
// engine's crash-recovery path (internal/core checkpoint + RunWithRecovery)
// under controlled failures. An Injector is configured with a seed and a
// list of one-shot fault events, each bound to a superstep barrier, and is
// attached to an engine through three adapters:
//
//   - Observer() hooks the superstep lifecycle, arming compute panics and
//     firing context cancellations at the chosen barriers;
//   - WrapProgram wraps Program.Compute so an armed panic detonates inside
//     exactly one worker;
//   - WrapSink wraps a Checkpointer.Sink, injecting sink open errors, torn
//     (short) writes, and bit flips into checkpoint files.
//
// Everything is deterministic given the seed and event list: the same
// spec replays the same failure sequence, so a crash-matrix cell that
// fails reproduces exactly. Events fire at most once each; Fired()
// reports which ones did.
package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ipregel/internal/core"
)

// Fault identifies one injectable failure kind.
type Fault int

const (
	// ComputePanic panics inside one worker's Compute call during the
	// event's superstep — a buggy user program or a fatal node error.
	ComputePanic Fault = iota
	// Cancel cancels the attempt's context (see Injector.Context) when
	// the event's superstep starts — an operator kill or a pre-emption.
	Cancel
	// SinkError makes the checkpoint sink fail to open for the event's
	// superstep — a full disk or a permission error.
	SinkError
	// TornWrite lets the checkpoint writer accept Arg bytes and then
	// fail — a crash mid-write. With an atomic sink the aborted temp
	// file must never surface as a checkpoint.
	TornWrite
	// BitFlip flips one bit (bit index Arg in the output stream) of the
	// checkpoint written at the event's superstep and lets the write
	// commit — silent corruption the CRCs must catch at restore.
	BitFlip
)

var faultNames = map[Fault]string{
	ComputePanic: "panic",
	Cancel:       "cancel",
	SinkError:    "sink",
	TornWrite:    "torn",
	BitFlip:      "flip",
}

func (f Fault) String() string {
	if n, ok := faultNames[f]; ok {
		return n
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Event is one scheduled fault: Fault at barrier Superstep, with Arg
// carrying the fault-specific parameter (torn-write byte budget, bit-flip
// bit index). Arg < 0 asks New to derive a pseudo-random value from the
// injector's seed.
type Event struct {
	Fault     Fault
	Superstep int
	Arg       int64
}

func (ev Event) String() string {
	switch ev.Fault {
	case TornWrite:
		return fmt.Sprintf("torn@%d:%d", ev.Superstep, ev.Arg)
	case BitFlip:
		return fmt.Sprintf("flip@%d:%d", ev.Superstep, ev.Arg)
	}
	return fmt.Sprintf("%s@%d", ev.Fault, ev.Superstep)
}

// Injector schedules the events and adapts them onto an engine. One
// injector can supervise several attempts in sequence (RunWithRecovery
// re-wraps the same injector each attempt); events stay one-shot across
// all of them.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	pending []Event
	fired   []Event
	cancel  context.CancelFunc

	// armedPanic holds superstep+1 while a ComputePanic event is armed
	// (0 = disarmed). Workers race to Swap it back to 0, so exactly one
	// panics. Accessed from worker goroutines, hence atomic.
	armedPanic atomic.Int64
}

// New builds an injector with the given seed and events. Events with a
// negative Arg get a deterministic pseudo-random parameter: a torn-write
// budget in [16, 96) bytes, a bit-flip index within the checkpoint's
// first 40 bytes (the v2 header region, so the flip always lands).
func New(seed int64, events ...Event) *Injector {
	inj := &Injector{rng: rand.New(rand.NewSource(seed))}
	for _, ev := range events {
		if ev.Arg < 0 {
			switch ev.Fault {
			case TornWrite:
				ev.Arg = 16 + int64(inj.rng.Intn(80))
			case BitFlip:
				ev.Arg = int64(inj.rng.Intn(40 * 8))
			default:
				ev.Arg = 0
			}
		}
		inj.pending = append(inj.pending, ev)
	}
	return inj
}

// FromSpec parses a comma-separated fault spec, the format the CLI's
// -chaos flag uses:
//
//	seed=42,panic@3,torn@5:128,flip@7,sink@9,cancel@11
//
// Each token is fault@superstep, with an optional :arg for torn (byte
// budget) and flip (bit index). fault@rand:N schedules the fault at a
// seed-derived pseudo-random superstep in [1, N]. seed= must come first
// if present (default 1).
func FromSpec(spec string) (*Injector, error) {
	seed := int64(1)
	var raw []string
	for i, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(tok, "seed="); ok {
			if i != 0 {
				return nil, fmt.Errorf("chaos: seed= must be the first token in %q", spec)
			}
			s, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %v", rest, err)
			}
			seed = s
			continue
		}
		raw = append(raw, tok)
	}
	inj := New(seed)
	for _, tok := range raw {
		name, at, ok := strings.Cut(tok, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: token %q is not fault@superstep", tok)
		}
		var fault Fault
		found := false
		for f, n := range faultNames {
			if n == name {
				fault, found = f, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("chaos: unknown fault %q (want panic|cancel|sink|torn|flip)", name)
		}
		ev := Event{Fault: fault, Arg: -1}
		stepStr, argStr, hasArg := strings.Cut(at, ":")
		if rnd, ok := strings.CutPrefix(stepStr, "rand"); ok && rnd == "" {
			if !hasArg {
				return nil, fmt.Errorf("chaos: %q needs a bound, e.g. %s@rand:20", tok, name)
			}
			n, err := strconv.Atoi(argStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("chaos: bad rand bound in %q", tok)
			}
			ev.Superstep = 1 + inj.rng.Intn(n)
			hasArg = false
		} else {
			s, err := strconv.Atoi(stepStr)
			if err != nil || s < 0 {
				return nil, fmt.Errorf("chaos: bad superstep in %q", tok)
			}
			ev.Superstep = s
		}
		if hasArg {
			a, err := strconv.ParseInt(argStr, 10, 64)
			if err != nil || a < 0 {
				return nil, fmt.Errorf("chaos: bad argument in %q", tok)
			}
			ev.Arg = a
		}
		if ev.Arg < 0 {
			switch ev.Fault {
			case TornWrite:
				ev.Arg = 16 + int64(inj.rng.Intn(80))
			case BitFlip:
				ev.Arg = int64(inj.rng.Intn(40 * 8))
			default:
				ev.Arg = 0
			}
		}
		inj.pending = append(inj.pending, ev)
	}
	return inj, nil
}

// take removes and returns the first pending event matching fault at
// superstep, recording it as fired.
func (inj *Injector) take(fault Fault, superstep int) (Event, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for i, ev := range inj.pending {
		if ev.Fault == fault && ev.Superstep == superstep {
			inj.pending = append(inj.pending[:i], inj.pending[i+1:]...)
			inj.fired = append(inj.fired, ev)
			return ev, true
		}
	}
	return Event{}, false
}

// Fired returns the events that have detonated, in firing order.
func (inj *Injector) Fired() []Event {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Event(nil), inj.fired...)
}

// Pending returns the events still waiting to fire.
func (inj *Injector) Pending() []Event {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Event(nil), inj.pending...)
}

// Context derives an attempt context whose cancellation the injector
// controls: a Cancel event fires the returned context's cancel func.
// Matches RecoveryOptions.AttemptContext's signature modulo the attempt
// number — pass it as
//
//	AttemptContext: func(parent context.Context, _ int) (context.Context, context.CancelFunc) {
//		return inj.Context(parent)
//	}
func (inj *Injector) Context(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	inj.mu.Lock()
	inj.cancel = cancel
	inj.mu.Unlock()
	return ctx, cancel
}

// Observer returns the lifecycle hook that arms per-superstep faults;
// add it to the engine's Config.Observers, which every attempt's engine
// is built with.
func (inj *Injector) Observer() core.Observer {
	return core.ObserverFuncs{
		SuperstepStart: func(superstep int) {
			if _, ok := inj.take(ComputePanic, superstep); ok {
				inj.armedPanic.Store(int64(superstep) + 1)
			}
			if _, ok := inj.take(Cancel, superstep); ok {
				inj.mu.Lock()
				cancel := inj.cancel
				inj.mu.Unlock()
				if cancel != nil {
					cancel()
				}
			}
		},
	}
}

// maybePanic detonates an armed compute panic in exactly one worker.
func (inj *Injector) maybePanic() {
	if inj.armedPanic.Load() == 0 {
		return
	}
	if armed := inj.armedPanic.Swap(0); armed != 0 {
		panic(fmt.Sprintf("chaos: injected compute panic at superstep %d", armed-1))
	}
}

// WrapProgram returns prog with Compute wrapped so armed ComputePanic
// events detonate inside a worker's compute call.
func WrapProgram[V, M any](inj *Injector, prog core.Program[V, M]) core.Program[V, M] {
	compute := prog.Compute
	prog.Compute = func(ctx *core.Context[V, M], v core.Vertex[V, M]) {
		inj.maybePanic()
		compute(ctx, v)
	}
	return prog
}

// WrapSink wraps a Checkpointer.Sink with the injector's sink faults:
// SinkError fails the open, TornWrite returns a writer that dies after
// the event's byte budget, BitFlip returns a writer that corrupts one
// bit and lets the checkpoint commit.
func (inj *Injector) WrapSink(sink func(superstep int) (io.Writer, error)) func(superstep int) (io.Writer, error) {
	return func(superstep int) (io.Writer, error) {
		if ev, ok := inj.take(SinkError, superstep); ok {
			return nil, fmt.Errorf("chaos: injected sink error at superstep %d", ev.Superstep)
		}
		w, err := sink(superstep)
		if err != nil {
			return nil, err
		}
		if ev, ok := inj.take(TornWrite, superstep); ok {
			return &tornWriter{w: w, budget: ev.Arg}, nil
		}
		if ev, ok := inj.take(BitFlip, superstep); ok {
			return &bitFlipWriter{w: w, bit: ev.Arg}, nil
		}
		return w, nil
	}
}

// tornWriter accepts budget bytes, then fails every further write — a
// process killed mid-checkpoint.
type tornWriter struct {
	w       io.Writer
	budget  int64
	written int64
}

func (t *tornWriter) Write(p []byte) (int, error) {
	if t.written >= t.budget {
		return 0, fmt.Errorf("chaos: injected torn write after %d bytes", t.written)
	}
	if int64(len(p)) > t.budget-t.written {
		p = p[:t.budget-t.written]
		n, err := t.w.Write(p)
		t.written += int64(n)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("chaos: injected torn write after %d bytes", t.written)
	}
	n, err := t.w.Write(p)
	t.written += int64(n)
	return n, err
}

// Commit refuses: a torn checkpoint must go through the sink's Abort.
func (t *tornWriter) Commit() error {
	if c, ok := t.w.(core.CheckpointCommitter); ok {
		_ = c.Abort()
	}
	return fmt.Errorf("chaos: torn checkpoint cannot commit")
}

func (t *tornWriter) Abort() error {
	if c, ok := t.w.(core.CheckpointCommitter); ok {
		return c.Abort()
	}
	return nil
}

// bitFlipWriter flips one bit of the stream (bit index `bit`) and passes
// everything else through, Commit included — the corruption is silent
// until a reader checks the CRCs.
type bitFlipWriter struct {
	w       io.Writer
	bit     int64
	written int64
}

func (b *bitFlipWriter) Write(p []byte) (int, error) {
	target := b.bit / 8
	if b.written <= target && target < b.written+int64(len(p)) {
		// Copy before mutating: p may be a bufio buffer the engine reuses.
		q := make([]byte, len(p))
		copy(q, p)
		q[target-b.written] ^= 1 << (b.bit % 8)
		p = q
	}
	n, err := b.w.Write(p)
	b.written += int64(n)
	return n, err
}

func (b *bitFlipWriter) Commit() error {
	if c, ok := b.w.(core.CheckpointCommitter); ok {
		return c.Commit()
	}
	return nil
}

func (b *bitFlipWriter) Abort() error {
	if c, ok := b.w.(core.CheckpointCommitter); ok {
		return c.Abort()
	}
	return nil
}
