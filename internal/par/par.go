// Package par runs independent work items on a bounded set of workers.
// Both of fairtcim's estimators are sums over independent samples — item i
// of a sampling run always draws from the i'th split of its seed stream —
// so one loop serves every parallel stage: world and RR-set sampling, the
// incremental RR refresh, the first CELF pass and betweenness. Which
// worker runs an item never changes its result.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxChunk bounds a chunk: a worker claims at most this many consecutive
// items at a time, and gets about this many chunks when n is large enough
// for that. So claiming costs little next to the work even for cheap items
// (an RR set, a RIS gain row), while the last chunk claimed leaves at most
// about 1/maxChunk of a worker's share unbalanced; items too few for both,
// such as 200 worlds on 2 workers, are claimed one at a time.
const maxChunk = 64

// For calls a worker's function once for every item in [0,n). The calling
// goroutine and up to parallelism−1 others (parallelism <= 0 means
// GOMAXPROCS) claim contiguous chunks of items in ascending order from one
// atomic counter, so each worker sees ascending items. newWorker runs once
// per worker, on that worker's goroutine, so per-worker scratch is built
// once, by the worker that uses it; the function it returns processes one
// item. A single worker runs inline, with no goroutine and no atomic.
//
// Every worker polls cancel before each chunk it claims. Once a worker
// finds it closed, the workers stop claiming and For returns
// context.Canceled after the last one has stopped; items left unprocessed
// are simply never run. A nil cancel never fires, and For then returns nil
// when every item is done.
func For(n, parallelism int, cancel <-chan struct{}, newWorker func() func(i int)) error {
	if n <= 0 {
		return nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	workers := min(parallelism, n)
	size := min(maxChunk, max(1, n/(workers*maxChunk)))
	if workers == 1 {
		process := newWorker()
		for lo := 0; lo < n; lo += size {
			if closed(cancel) {
				return context.Canceled
			}
			for i := lo; i < min(lo+size, n); i++ {
				process(i)
			}
		}
		return nil
	}

	var next atomic.Int64
	var canceled atomic.Bool
	work := func(process func(int)) {
		for {
			lo := int(next.Add(int64(size))) - size
			if lo >= n {
				return
			}
			if closed(cancel) {
				canceled.Store(true)
				return
			}
			for i := lo; i < min(lo+size, n); i++ {
				process(i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work(newWorker())
		}()
	}
	work(newWorker())
	wg.Wait()
	if canceled.Load() {
		return context.Canceled
	}
	return nil
}

// closed reports whether cancel has been closed; a nil cancel never is.
func closed(cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}
