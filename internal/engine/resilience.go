package engine

import (
	"context"
	"errors"
	"time"

	"nnbaton/internal/ckpt"
	"nnbaton/internal/obs"
	"nnbaton/internal/par"
)

// Config is an Evaluator's concurrency and resilience policy. The zero value
// means GOMAXPROCS workers, no deadlines, no retries and no checkpointing,
// with panic isolation always on.
type Config struct {
	// Workers bounds concurrently computing searches (<=0 = GOMAXPROCS).
	Workers int

	// PointTimeout bounds one search attempt (and, through context
	// inheritance, the layer searches of one sweep point). A search that
	// overruns is abandoned — the computation keeps its worker slot until
	// the underlying search returns, but the caller degrades immediately —
	// and retried or failed per MaxRetries. 0 disables deadlines.
	PointTimeout time.Duration
	// MaxRetries bounds re-attempts after a retryable failure (a recovered
	// panic, a deadline overrun, or an error reporting Temporary() == true).
	// 0 means fail on the first error.
	MaxRetries int
	// Backoff is the first retry's delay; it doubles per attempt. <=0 uses
	// DefaultBackoff.
	Backoff time.Duration

	// Registry receives the engine's metrics (nil disables observation).
	Registry *obs.Registry
	// Sink receives sweep progress events (nil disables them).
	Sink obs.ProgressSink
	// Journal is the checkpoint journal sweeps record completed points to
	// and replay them from (nil disables checkpointing).
	Journal *ckpt.Journal
	// Cache is the persistent result cache layered under the in-memory memo
	// cache: completed layer searches are stored, and a fresh process (or a
	// sharded sweep worker) serves them from disk instead of recomputing.
	// Cached payloads are revalidated on load and quarantined on any defect,
	// so a poisoned cache degrades to recompute. Nil disables persistence.
	Cache ResultCache
}

// DefaultBackoff is the first-retry delay when Config.Backoff is unset.
const DefaultBackoff = 100 * time.Millisecond

// backoff returns the delay before re-running attempt (0-based) + 1,
// doubling per attempt and capped to keep pathological retry chains bounded.
func (c Config) backoff(attempt int) time.Duration {
	b := c.Backoff
	if b <= 0 {
		b = DefaultBackoff
	}
	const maxBackoff = 30 * time.Second
	for i := 0; i < attempt && b < maxBackoff; i++ {
		b *= 2
	}
	return min(b, maxBackoff)
}

// leaderCancelled marks a cache entry whose leader aborted because its own
// context ended before the search completed. Waiters treat it as retryable —
// their context may still be live — where every other entry error is
// terminal for them.
type leaderCancelled struct{ cause error }

func (e *leaderCancelled) Error() string {
	return "engine: search leader cancelled: " + e.cause.Error()
}
func (e *leaderCancelled) Unwrap() error { return e.cause }

// searchFailed marks a search failure its leader already ran the retry
// policy on. It is terminal for the point that asked for the search, so
// retry budgets never multiply across the search and point levels.
type searchFailed struct{ err error }

func (e *searchFailed) Error() string { return e.err.Error() }
func (e *searchFailed) Unwrap() error { return e.err }

// temporary is the classification interface transient errors implement (the
// net package idiom; internal/faults.Transient produces such errors).
type temporary interface{ Temporary() bool }

// IsRetryable reports whether a failure is worth re-attempting under the
// bounded retry policy: recovered panics, per-attempt deadline overruns, and
// errors self-reporting as temporary. Deterministic failures — unmappable
// layers, invalid configurations, parent-context cancellation — are not, and
// neither is a search failure its leader already retried.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var sf *searchFailed
	if errors.As(err, &sf) {
		return false
	}
	var pe *par.PanicError
	if errors.As(err, &pe) {
		return true
	}
	var lc *leaderCancelled
	if errors.As(err, &lc) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var t temporary
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return false
}

// SleepCtx sleeps for d unless ctx ends first, returning ctx's error when it
// does (at once, for d <= 0).
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
