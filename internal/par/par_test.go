package par_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fairtcim/internal/par"
)

// TestForCoversEachIndexOnce checks that every index in [0,n) is
// processed exactly once, that no more workers start than asked for, and
// that each worker sees its items in ascending order.
func TestForCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1000} {
		for _, parallelism := range []int{-1, 0, 1, 2, 4, 16} {
			hits := make([]atomic.Int32, n)
			var workers, descents atomic.Int32
			err := par.For(n, parallelism, nil, func() func(int) {
				workers.Add(1)
				last := -1
				return func(i int) {
					if i <= last {
						descents.Add(1)
					}
					last = i
					hits[i].Add(1)
				}
			})
			if err != nil {
				t.Fatalf("n=%d parallelism=%d: %v", n, parallelism, err)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d parallelism=%d: index %d processed %d times", n, parallelism, i, h)
				}
			}
			limit := parallelism
			if limit <= 0 {
				limit = runtime.GOMAXPROCS(0)
			}
			if w := int(workers.Load()); w > min(limit, n) || (n > 0 && w < 1) {
				t.Fatalf("n=%d parallelism=%d: %d workers", n, parallelism, w)
			}
			if d := descents.Load(); d != 0 {
				t.Fatalf("n=%d parallelism=%d: a worker went back %d times", n, parallelism, d)
			}
		}
	}
}

// TestForSingleWorkerInline: one worker runs every item on the calling
// goroutine, in order, without starting a goroutine.
func TestForSingleWorkerInline(t *testing.T) {
	before := runtime.NumGoroutine()
	most := before
	var order []int
	err := par.For(300, 1, nil, func() func(int) {
		return func(i int) {
			most = max(most, runtime.NumGoroutine())
			order = append(order, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if most != before {
		t.Fatalf("items ran beside %d goroutines, want the caller's %d", most, before)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("item %d ran at position %d", v, i)
		}
	}
	if len(order) != 300 {
		t.Fatalf("ran %d items, want 300", len(order))
	}
}

// TestForPreCanceled: a closed cancel stops For before any item runs, at
// every worker count.
func TestForPreCanceled(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	for _, parallelism := range []int{1, 2, 4} {
		var ran atomic.Int32
		err := par.For(1000, parallelism, cancel, func() func(int) {
			return func(int) { ran.Add(1) }
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: got %v, want context.Canceled", parallelism, err)
		}
		if r := ran.Load(); r != 0 {
			t.Fatalf("parallelism=%d: %d items ran after cancel", parallelism, r)
		}
	}
}

// TestForCancelMidRun: once cancel closes, each worker finishes at most
// the chunk it holds (maxChunk items) and claims no other.
func TestForCancelMidRun(t *testing.T) {
	const maxChunk = 64
	for _, parallelism := range []int{1, 2, 4} {
		cancel := make(chan struct{})
		var once sync.Once
		var fired atomic.Bool
		var mu sync.Mutex
		var after []*int
		err := par.For(100_000, parallelism, cancel, func() func(int) {
			seen := new(int) // items this worker started after it saw the close
			mu.Lock()
			after = append(after, seen)
			mu.Unlock()
			return func(i int) {
				if fired.Load() {
					*seen++
				}
				if i == 10_000 {
					once.Do(func() {
						close(cancel)
						fired.Store(true)
					})
				}
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: got %v, want context.Canceled", parallelism, err)
		}
		for w, seen := range after {
			if *seen > maxChunk {
				t.Fatalf("parallelism=%d: worker %d ran %d items after the close, want <= %d", parallelism, w, *seen, maxChunk)
			}
		}
	}
}
