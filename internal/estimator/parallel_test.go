package estimator_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fairtcim/internal/estimator"
)

// TestParallelChunksCoversEachIndexOnce checks that every index in [0,n)
// is processed exactly once, that no more workers start than asked for,
// and that one worker — or a one-element range — runs the whole range as
// a single inline call.
func TestParallelChunksCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1000} {
		for _, parallelism := range []int{-1, 0, 1, 2, 4, 16} {
			hits := make([]atomic.Int32, n)
			var workers, calls atomic.Int32
			var mu sync.Mutex
			var spans [][2]int
			estimator.ParallelChunks(n, parallelism, func() func(lo, hi int) {
				workers.Add(1)
				return func(lo, hi int) {
					calls.Add(1)
					mu.Lock()
					spans = append(spans, [2]int{lo, hi})
					mu.Unlock()
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				}
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d parallelism=%d: index %d processed %d times", n, parallelism, i, h)
				}
			}
			limit := parallelism
			if limit <= 0 {
				limit = runtime.GOMAXPROCS(0)
			}
			if w := int(workers.Load()); w > limit || (n > 0 && w < 1) {
				t.Fatalf("n=%d parallelism=%d: %d workers", n, parallelism, w)
			}
			if n > 0 && workers.Load() == 1 && (calls.Load() != 1 || spans[0] != [2]int{0, n}) {
				t.Fatalf("n=%d parallelism=%d: one worker ran spans %v, want one inline [0,%d)", n, parallelism, spans, n)
			}
			if n == 1 && workers.Load() > 1 {
				t.Fatalf("n=%d parallelism=%d: %d workers for a single chunk", n, parallelism, workers.Load())
			}
		}
	}
}
