package linalg

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelForCoversEveryIndexOnce: for every pool size and item count
// each index is visited exactly once and newWorker runs once per worker —
// min(workers, n) of them, the caller itself being the one worker of the
// serial path.
func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		for _, n := range []int{0, 1, 5, 64} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				visits := make([]atomic.Int32, n)
				var made atomic.Int64
				err := ParallelFor(n, workers, func() func(int) error {
					made.Add(1)
					return func(i int) error {
						visits[i].Add(1)
						return nil
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Errorf("index %d visited %d times", i, v)
					}
				}
				pool := min(workers, n)
				if got := made.Load(); got != int64(pool) {
					t.Errorf("newWorker called %d times for a pool of %d over %d items", got, pool, n)
				}
			})
		}
	}
}

// TestParallelForFirstErrorStopsClaims: the first failure is the one
// returned, and once it has landed no worker claims another index.
func TestParallelForFirstErrorStopsClaims(t *testing.T) {
	boom := errors.New("boom")

	// Serial: in order, stop at the failure.
	var ran []int
	err := ParallelFor(10, 1, func() func(int) error {
		return func(i int) error {
			ran = append(ran, i)
			if i == 3 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) || len(ran) != 4 {
		t.Errorf("serial: err %v after indices %v, want boom after 0..3", err, ran)
	}

	// Pooled, two workers: index 0 fails once index 1 is claimed too, so
	// both workers are alive when index 1 counts the goroutines. It then
	// holds its index until that count drops — the failing worker exits
	// only after publishing the error — so when it comes back for another
	// index the failure is there to stop it.
	var visited atomic.Int64
	bothAlive := make(chan struct{})
	err = ParallelFor(64, 2, func() func(int) error {
		return func(i int) error {
			visited.Add(1)
			switch i {
			case 0:
				<-bothAlive
				return boom
			case 1:
				alive := runtime.NumGoroutine()
				close(bothAlive)
				for runtime.NumGoroutine() >= alive {
					runtime.Gosched()
				}
				return nil
			}
			return fmt.Errorf("index %d claimed after the failure", i)
		}
	})
	if err != boom {
		t.Errorf("pooled: returned %v, want the first failure", err)
	}
	if v := visited.Load(); v > 2 {
		t.Errorf("pooled: %d indices ran after index 0 failed; the failure must stop further claims", v)
	}
}
