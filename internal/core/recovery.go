package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ipregel/internal/graph"
)

// The recovery supervisor's backoff: the sleep before the second
// attempt, doubling each retry up to the cap.
const (
	recoveryBackoff    = 100 * time.Millisecond
	recoveryMaxBackoff = 5 * time.Second
)

// RecoveryOptions tunes RunWithRecovery.
type RecoveryOptions struct {
	// MaxAttempts bounds the total number of run attempts, the first
	// included (default 3).
	MaxAttempts int
	// Sleep replaces time.Sleep, letting tests run the backoff schedule
	// without real delays.
	Sleep func(time.Duration)
	// AttemptContext derives each attempt's context from the parent
	// (attempt numbering starts at 1). The returned cancel func is
	// called when the attempt ends. Fault injectors hook here to arm
	// per-attempt cancellation; nil uses the parent context directly.
	AttemptContext func(parent context.Context, attempt int) (context.Context, context.CancelFunc)
	// OnRetry is called before each re-attempt with the attempt number
	// that failed and its error — the hook telemetry uses to count
	// recoveries.
	OnRetry func(attempt int, err error)
}

// RunWithRecovery is the crash-recovery supervisor: it runs the program
// to completion, and when an attempt fails — a compute panic, a
// cancelled context, a checkpoint write error — it restores the newest
// good checkpoint from sink (FileSink.LatestGood) and retries, with
// bounded attempts and exponential backoff (100ms, doubling, capped at
// 5s). Each attempt resumes from the last barrier the sink committed, so
// completed supersteps are never recomputed from superstep 0 (the
// standard Pregel checkpoint recovery model).
//
// The returned engine is the one whose run finished (its Value/
// ValuesDense hold the results); the Report is that run's, with
// Report.Attempts and Report.Recoveries recording the supervisor's work.
// Construction and restore errors are fatal — retrying cannot fix a
// program/checkpoint mismatch — and a parent-context cancellation stops
// the supervisor rather than burning attempts.
func RunWithRecovery[V, M any](
	ctx context.Context,
	g *graph.Graph,
	cfg Config,
	prog Program[V, M],
	cp Checkpointer[V, M],
	sink *FileSink,
	opts RecoveryOptions,
) (*Engine[V, M], Report, error) {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if sink == nil {
		return nil, Report{}, errors.New("core: RunWithRecovery needs the checkpointer's FileSink")
	}
	backoff := recoveryBackoff
	var lastErr error
	for attempt := 1; attempt <= opts.MaxAttempts; attempt++ {
		e, err := buildAttempt(g, cfg, prog, cp, sink)
		if err != nil {
			return nil, Report{}, err
		}
		attemptCtx := ctx
		var cancel context.CancelFunc
		if opts.AttemptContext != nil {
			attemptCtx, cancel = opts.AttemptContext(ctx, attempt)
		}
		rep, runErr := e.RunContext(attemptCtx)
		if cancel != nil {
			cancel()
		}
		if runErr == nil {
			rep.Attempts = attempt
			rep.Recoveries = attempt - 1
			e.report.Attempts = rep.Attempts
			e.report.Recoveries = rep.Recoveries
			return e, rep, nil
		}
		lastErr = runErr
		if ctx.Err() != nil {
			// The parent context is gone: the operator stopped the whole
			// computation, not one attempt.
			return e, rep, fmt.Errorf("core: recovery stopped, parent context done: %w", runErr)
		}
		if attempt < opts.MaxAttempts {
			if opts.OnRetry != nil {
				opts.OnRetry(attempt, runErr)
			}
			opts.Sleep(backoff)
			backoff = min(2*backoff, recoveryMaxBackoff)
		}
	}
	return nil, Report{}, fmt.Errorf("core: run failed after %d attempts: %w", opts.MaxAttempts, lastErr)
}

// buildAttempt constructs one attempt's engine: restored from the newest
// good checkpoint when one exists, fresh otherwise, the checkpointer
// installed either way.
func buildAttempt[V, M any](
	g *graph.Graph,
	cfg Config,
	prog Program[V, M],
	cp Checkpointer[V, M],
	sink *FileSink,
) (*Engine[V, M], error) {
	r, _, found, err := sink.LatestGood()
	if err != nil {
		return nil, fmt.Errorf("core: recovery sink: %w", err)
	}
	var e *Engine[V, M]
	if found {
		e, err = Restore(r, g, cfg, prog, cp.VCodec, cp.MCodec)
		cerr := r.Close()
		if err != nil {
			return nil, fmt.Errorf("core: recovery restore: %w", err)
		}
		if cerr != nil {
			return nil, fmt.Errorf("core: recovery restore: %w", cerr)
		}
	} else {
		e, err = New(g, cfg, prog)
		if err != nil {
			return nil, err
		}
	}
	if err := e.SetCheckpointer(cp); err != nil {
		return nil, err
	}
	return e, nil
}
