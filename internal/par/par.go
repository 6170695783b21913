// Package par provides the bounded fan-out primitive shared by the
// evaluation stack: the engine's sweep points and model layers and the
// mapper's intra-layer shard search all fan out through it, so every level
// of nested parallelism follows one worker discipline without creating an
// import cycle (engine depends on mapper; mapper cannot depend on engine).
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is a panic recovered at an isolation boundary, converted into a
// structured, reportable failure: the site that caught it, the operation
// that panicked, the panic value and the goroutine stack. ParallelFor
// returns one for a panicking worker body (site par.parallel_for), so a
// panic never tears down the process through an unrecovered goroutine; the
// engine builds its own at the boundaries that have a point to fail.
type PanicError struct {
	Site  string // isolation boundary, e.g. "engine.search"
	Op    string // operation identity, e.g. "conv3 on 4-8-8-8 (...)"
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

// Error renders the panic without the stack (the stack ships through the
// obs event ring and is available on the struct).
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic at %s (%s): %v", e.Site, e.Op, e.Value)
}

// safeCall runs f(w, i) with panic isolation.
func safeCall(f func(worker, i int) error, w, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Site: "par.parallel_for", Op: fmt.Sprintf("index %d", i), Value: r, Stack: debug.Stack()}
		}
	}()
	return f(w, i)
}

// ParallelFor runs f(i) for i in [0, n) across at most `workers` goroutines
// (<=0 means GOMAXPROCS), honoring context cancellation. Dispatch stops at
// the first error or at cancellation; indices already dispatched run to
// completion. The first error (or the context's error) is returned. A
// panicking body is recovered and surfaced as a *PanicError rather than
// crashing the process.
func ParallelFor(ctx context.Context, n, workers int, f func(i int) error) error {
	return ParallelForWorker(ctx, n, workers, func(_, i int) error { return f(i) })
}

// ParallelForWorker is ParallelFor with a stable worker identity: f receives
// the index of the goroutine running it (0 ≤ worker < effective workers), so
// callers can hand each worker a private scratch slot without a sync.Pool in
// the hot loop. The serial path (one worker) always passes worker 0.
func ParallelForWorker(ctx context.Context, n, workers int, f func(worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := safeCall(f, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		next     = make(chan int)
		stop     = make(chan struct{})
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(stop)
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if err := safeCall(f, w, i); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
dispatch:
	for i := 0; i < n; i++ {
		// select picks at random among ready cases, so a context cancelled
		// before this send could otherwise still hand out index i.
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		select {
		case next <- i:
		case <-stop:
			break dispatch
		case <-ctx.Done():
			fail(ctx.Err())
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return firstErr
}
