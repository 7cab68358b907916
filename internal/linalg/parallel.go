package linalg

import (
	"sync"
	"sync/atomic"
)

// ParallelFor runs work on every index of [0, n) over a pool of at most
// workers goroutines — the one data-parallel loop of the compute layers
// and the only place this package starts a goroutine. The caller decides
// the worker count (outer loops own the parallelism; the kernels they call,
// GEMM included, never spawn). Each goroutine calls newWorker once
// (scratch allocated there is per worker, not per index) and feeds the
// function it gets back the indices it claims from a shared counter, so
// uneven items balance themselves. The first error stops further claims
// and is returned; indices already claimed still finish. With workers ≤ 1
// or a single index the loop runs in order on the caller's goroutine.
func ParallelFor(n, workers int, newWorker func() func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers = min(workers, n); workers <= 1 {
		work := newWorker()
		for i := 0; i < n; i++ {
			if err := work(i); err != nil {
				return err
			}
		}
		return nil
	}
	var pool struct { // one heap object for what the workers share
		wg    sync.WaitGroup
		next  atomic.Int64
		first atomic.Pointer[error]
	}
	for w := 0; w < workers; w++ {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			work := newWorker()
			for pool.first.Load() == nil {
				i := int(pool.next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := work(i); err != nil {
					failure := err // only a failure escapes to the heap
					pool.first.CompareAndSwap(nil, &failure)
				}
			}
		}()
	}
	pool.wg.Wait()
	if e := pool.first.Load(); e != nil {
		return *e
	}
	return nil
}
