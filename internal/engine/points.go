package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"nnbaton/internal/obs"
	"nnbaton/internal/par"
)

// Points describes one sweep of independent, journaled points for
// RunPoints. P is the caller's point value and R its checkpoint-journal
// record.
type Points[P, R any] struct {
	// Label names the sweep on progress lines; Span times each evaluated
	// point; Site is where a panicking point is caught.
	Label, Span, Site string
	// N is the number of points.
	N int
	// Key is point i's journal key; Op names it in a PanicError.
	Key, Op func(i int) string
	// Eval runs one attempt at point i, filling the zero point p. A failed
	// attempt returns its error and leaves p as the failure is reported.
	Eval func(ctx context.Context, i int, p *P) error
	// Record converts an evaluated point to its journal record; Replay
	// converts point i's journal record back.
	Record func(o Outcome[P]) R
	Replay func(i int, rec R) Outcome[P]
}

// Outcome is one point as RunPoints returns it.
type Outcome[P any] struct {
	Val P
	// Err records why the point failed (nil on success).
	Err error
	// Attempts counts evaluation attempts (1 without retries).
	Attempts int
	// Replayed marks a point served from the checkpoint journal.
	Replayed bool
}

// RunPoints evaluates the points of s in parallel under the evaluator's
// worker bound and resilience policy, returning their outcomes in point
// order. A point already in the checkpoint journal is replayed instead of
// evaluated. Any other point runs under the point retry-and-isolate policy
// (see runPoint), is timed under s.Span, and is journaled once it completes.
// A failed point is recorded on its Outcome rather than aborting the sweep.
// Only context cancellation, or a journal that cannot be appended to,
// returns an error. A point cancelled mid-evaluation is never journaled, so a
// resumed run re-evaluates it. Progress flows to the attached sink.
func RunPoints[P, R any](ctx context.Context, e *Evaluator, s Points[P, R]) ([]Outcome[P], error) {
	out := make([]Outcome[P], s.N)
	track := obs.NewTracker(e.sink, s.Label, s.N)
	track.SetNote(e.pruneNote)
	jrn := e.cfg.Journal
	err := par.ParallelFor(ctx, s.N, e.cfg.Workers, func(i int) error {
		key := s.Key(i)
		if raw, ok := jrn.Lookup(key); ok {
			var rec R
			if json.Unmarshal(raw, &rec) == nil {
				o := s.Replay(i, rec)
				o.Replayed = true
				out[i] = o
				e.replayed.Add(1)
				track.Replayed(o.Err)
				return nil
			}
		}
		stop := e.reg.Span(s.Span)
		o := runPoint(ctx, e, s.Site, s.Op(i), func(ctx context.Context, p *P) error { return s.Eval(ctx, i, p) })
		stop()
		if o.Err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		out[i] = o
		if err := jrn.Append(key, s.Record(o)); err != nil {
			return err
		}
		track.Done(o.Err)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runPoint evaluates one point under the point retry-and-isolate policy:
// each attempt starts from a zero point, a panicking attempt fails with a
// *PanicError caught at site, and a retryable failure is re-attempted after
// the doubling backoff, at most Config.MaxRetries times and never once ctx
// has ended.
func runPoint[P any](ctx context.Context, e *Evaluator, site, op string, eval func(context.Context, *P) error) Outcome[P] {
	for attempt := 1; ; attempt++ {
		var o Outcome[P]
		o.Err = e.isolate(site, op, func() error { return eval(ctx, &o.Val) })
		o.Attempts = attempt
		if o.Err == nil || ctx.Err() != nil || !IsRetryable(o.Err) || attempt > e.cfg.MaxRetries {
			return o
		}
		e.retries.Add(1)
		if SleepCtx(ctx, e.cfg.backoff(attempt-1)) != nil {
			return o
		}
	}
}

// isolate runs f, converting a panic into a *PanicError caught at site. The
// panic is counted, and its value and stack are kept in the registry's event
// ring for the -metrics dump.
func (e *Evaluator) isolate(site, op string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &par.PanicError{Site: site, Op: op, Value: r, Stack: debug.Stack()}
			e.panics.Add(1)
			e.reg.Event("panic."+site, fmt.Sprintf("%s: %v\n%s", op, r, pe.Stack))
			err = pe
		}
	}()
	return f()
}

// errText renders a point failure for its journal record ("" for success);
// errOf restores it.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func errOf(text string) error {
	if text == "" {
		return nil
	}
	return errors.New(text)
}
