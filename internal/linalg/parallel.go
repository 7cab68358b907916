package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs work on every index of [0, n) over at most workers workers —
// the one data-parallel loop of the compute layers and the only place this
// package starts a goroutine. The caller decides the worker count (outer
// loops own the parallelism; the kernels they call, GEMM included, never
// spawn) and is itself worker 0, so a one-worker loop runs in order on the
// caller's goroutine and starts none. Each worker calls newWorker once
// with its number w in [0, min(workers, n)) — scratch allocated or picked
// there is per worker, not per index — and feeds the function it gets
// back the indices it claims from a shared counter, so uneven items
// balance themselves. The first error stops further claims and is
// returned; indices already claimed still finish.
//
// A Pool's worker body is built on its first Run and kept, so a Pool that
// is reused with a newWorker that allocates nothing runs allocation-free.
// The zero value is ready; a Pool runs one loop at a time and must not be
// copied after first use. ParallelFor is a Pool used once.
type Pool struct {
	n         int
	newWorker func(w int) func(i int) error
	ids, next atomic.Int64 // worker numbers and index claims
	first     atomic.Pointer[error]
	wg        sync.WaitGroup
	// spawn is the body of every worker goroutine, built once: starting a
	// prebuilt func value allocates nothing.
	spawn func()
}

// Run runs the loop and returns its first error.
func (p *Pool) Run(n, workers int, newWorker func(w int) func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if p.spawn == nil {
		p.spawn = func() {
			defer p.wg.Done()
			p.work(int(p.ids.Add(1)))
		}
	}
	p.n, p.newWorker = n, newWorker
	p.ids.Store(0)
	p.next.Store(0)
	p.first.Store(nil)
	workers = max(min(workers, n), 1)
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.spawn()
	}
	p.work(0)
	p.wg.Wait()
	if e := p.first.Load(); e != nil {
		return *e
	}
	return nil
}

// work is worker w: its own function, then indices until none is left or
// a failure has landed.
func (p *Pool) work(w int) {
	work := p.newWorker(w)
	for p.first.Load() == nil {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		if err := work(i); err != nil {
			failure := err // only a failure escapes to the heap
			p.first.CompareAndSwap(nil, &failure)
		}
	}
}

// ParallelFor is Run on a fresh Pool, for a loop whose workers need not
// know their number.
func ParallelFor(n, workers int, newWorker func() func(i int) error) error {
	var p Pool
	return p.Run(n, workers, func(int) func(int) error { return newWorker() })
}

// ForChunks splits [0, count) into one contiguous chunk per CPU and runs f
// on each through ParallelFor; a batch too small to amortize the fan-out
// (fewer than four elements per CPU) runs as one chunk on the caller's
// goroutine.
func ForChunks(count int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if count < 4*workers {
		f(0, count)
		return
	}
	chunk := (count + workers - 1) / workers
	ParallelFor((count+chunk-1)/chunk, workers, func() func(int) error {
		return func(w int) error {
			f(w*chunk, min((w+1)*chunk, count))
			return nil
		}
	})
}
