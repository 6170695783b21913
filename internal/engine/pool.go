package engine

import (
	"context"
	"runtime/debug"

	"nnbaton/internal/par"
)

// safeCall runs f(i) with panic isolation: a panicking body returns a
// structured *PanicError instead of tearing down the worker pool (and, with
// it, every sibling computation and waiter).
func safeCall(f func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{
				Site:  "engine.parallel_for",
				Op:    "body",
				Value: r,
				Stack: debug.Stack(),
			}
		}
	}()
	return f(i)
}

// ParallelFor runs f(i) for i in [0, n) across at most `workers` goroutines
// (<=0 means GOMAXPROCS), honoring context cancellation. Dispatch stops at
// the first error or at cancellation; indices already dispatched run to
// completion. The first error (or the context's error) is returned. A
// panicking body is recovered and surfaced as a *PanicError rather than
// crashing the process.
//
// It is the single fan-out primitive of the evaluation engine; the pool
// mechanics live in internal/par (shared with the mapper's intra-layer shard
// search), while this wrapper converts body panics into the engine's richer
// *PanicError before par can see them.
// Nesting is safe because the engine bounds actual search computation with
// its own semaphore, never this goroutine count.
func ParallelFor(ctx context.Context, n, workers int, f func(int) error) error {
	return par.ParallelFor(ctx, n, workers, func(i int) error {
		return safeCall(f, i)
	})
}
