package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Worker budget: a package-global pool of schedulable CPU tokens that makes
// kernel-level parallelism compose with the outer worker pools instead of
// oversubscribing them. Every layer that runs compute goroutines reserves
// one token per worker for the worker's lifetime: the data-parallel loops
// (the sequential GF phase's point workers, the SSE atom pool, the SBSMM
// batch splitter) through ParallelFor below, the long-lived pools (the
// simulated MPI ranks of comm.World.Run, the sdfg executor workers each
// rank runs its iteration graph on, the ensemble member runners) through
// ReserveWorker directly. A large GEMM then fans out only over tokens that
// are actually free: called from a saturated pool it runs serially on its
// caller's goroutine; called from the top level with idle CPUs it takes
// them.
//
// The budget defaults to GOMAXPROCS at process start. SetWorkerBudget
// overrides it (tests pin it; a daemon colocating several solvers can
// partition cores between them).
var (
	budgetTotal atomic.Int64 // configured token count
	budgetFree  atomic.Int64 // tokens not reserved by an outer pool
)

func init() {
	n := int64(runtime.GOMAXPROCS(0))
	budgetTotal.Store(n)
	budgetFree.Store(n)
}

// WorkerBudget returns the configured worker-token count.
func WorkerBudget() int { return int(budgetTotal.Load()) }

// SetWorkerBudget sets the worker-token count and returns the previous
// value. n <= 0 restores the GOMAXPROCS default. Outstanding reservations
// carry over: the free count is adjusted by the same delta, so a pool that
// reserved under the old budget still releases correctly.
func SetWorkerBudget(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	old := budgetTotal.Swap(int64(n))
	budgetFree.Add(int64(n) - old)
	return int(old)
}

// ReserveWorker marks one worker goroutine as busy for scheduling purposes
// and returns the matching release function. Outer pools call it once per
// worker they spawn (reservation never blocks — the pool is entitled to
// its workers; the budget only steers how much extra parallelism inner
// kernels may add). The returned release must be called exactly once.
func ReserveWorker() (release func()) {
	budgetFree.Add(-1)
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			budgetFree.Add(1)
		}
	}
}

// tryAcquireWorkers takes up to max free tokens (never blocking, never
// going below zero) and returns how many it got. The caller must hand them
// back with releaseWorkers. One token is always left behind for the
// calling goroutine itself: a top-level caller holds no reservation but
// still occupies a CPU, so taking the last token would oversubscribe by
// one (on a single-CPU box it would turn every large GEMM into two
// goroutines fighting over one core).
func tryAcquireWorkers(max int) int {
	if max <= 0 {
		return 0
	}
	for {
		free := budgetFree.Load()
		if free <= 1 {
			return 0
		}
		take := int64(max)
		if take > free-1 {
			take = free - 1
		}
		if budgetFree.CompareAndSwap(free, free-take) {
			return int(take)
		}
	}
}

func releaseWorkers(n int) {
	if n > 0 {
		budgetFree.Add(int64(n))
	}
}

// ParallelFor runs work on every index of [0, n) over a pool of at most
// workers goroutines — the one data-parallel loop of the compute layers.
// Each goroutine holds one ReserveWorker token for its lifetime, calls
// newWorker once (scratch allocated there is per worker, not per index)
// and feeds the function it gets back the indices it claims from a shared
// counter, so uneven items balance themselves. The first error stops
// further claims and is returned; indices already claimed still finish.
// With workers ≤ 1 or a single index the loop runs in order on the
// caller's goroutine and reserves nothing: a serial caller occupies
// whatever its own pool already accounted for.
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
			defer ReserveWorker()()
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
