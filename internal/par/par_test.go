package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	// n=1 with 4 workers caps the fan-out at one body.
	for _, tc := range []struct{ n, workers int }{{100, 0}, {100, 1}, {100, 2}, {100, 7}, {100, 64}, {1, 4}} {
		hits := make([]atomic.Int32, tc.n)
		err := ParallelFor(context.Background(), tc.n, tc.workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

func TestParallelForWorkerIdentity(t *testing.T) {
	const n, workers = 200, 4
	var mu sync.Mutex
	perWorker := map[int]int{}
	err := ParallelForWorker(context.Background(), n, workers, func(w, i int) error {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
		}
		mu.Lock()
		perWorker[w]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range perWorker {
		total += c
	}
	if total != n {
		t.Fatalf("ran %d bodies, want %d", total, n)
	}
}

func TestParallelForSerialWorkerIsZero(t *testing.T) {
	err := ParallelForWorker(context.Background(), 10, 1, func(w, i int) error {
		if w != 0 {
			t.Errorf("serial path passed worker %d", w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelForFirstError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ParallelFor(context.Background(), 1000, workers, func(i int) error {
			ran.Add(1)
			if i == 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: got %v, want sentinel", workers, err)
		}
		if ran.Load() == 1000 {
			t.Fatalf("workers=%d: error did not short-circuit dispatch", workers)
		}
	}
}

func TestParallelForPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ParallelFor(context.Background(), 50, workers, func(i int) error {
			if i == 7 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
		}
		if pe.Site != "par.parallel_for" || pe.Op != "index 7" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: incomplete panic capture: %+v", workers, pe)
		}
	}
}

func TestParallelForCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ParallelFor(ctx, 10000, 2, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() == 10000 {
		t.Fatal("cancellation did not stop dispatch")
	}
	// An already-cancelled context fails the parallel and the serial path
	// alike and runs no body on either. A select with a ready send and a
	// closed done channel picks at random, so the parallel case repeats.
	for _, workers := range []int{4, 1} {
		var ran atomic.Int64
		for range 1000 {
			err := ParallelFor(ctx, 100, workers, func(int) error {
				ran.Add(1)
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
			}
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: ran %d bodies under a cancelled context", workers, ran.Load())
		}
	}
}

func TestParallelForEmpty(t *testing.T) {
	// workers=0 resolves to GOMAXPROCS before the empty loop returns.
	for _, workers := range []int{0, 4} {
		if err := ParallelFor(context.Background(), 0, workers, func(int) error {
			t.Errorf("workers=%d: body ran for n=0", workers)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
