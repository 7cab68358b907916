package comm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestIAlltoallvSlotsOutOfOrder is the property the task-graph scheduler
// relies on: two outstanding IAlltoallv collectives posted in opposite
// order on different ranks still match by slot, not by call order.
//
// It also pins that a request completes on its waiter: between post and
// wait no goroutine exists on the request's behalf — for IAlltoallv on
// any rank, and for IAllreduce on a non-root rank. The last rank (for the
// exchanges) and the root (for the reduction) post only once the others
// have counted, so a receiver goroutine, were there one, would still be
// blocked on the missing rank when it is looked for.
func TestIAlltoallvSlotsOutOfOrder(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	var countedExchange, countedReduce sync.WaitGroup
	countedExchange.Add(n - 1)
	countedReduce.Add(n - 1)
	err := w.Run(func(c *Comm) error {
		c.Barrier() // every rank's own goroutine exists before anyone counts
		mk := func(scale float64) [][]complex128 {
			send := make([][]complex128, n)
			for dst := 0; dst < n; dst++ {
				send[dst] = []complex128{complex(scale*float64(c.Rank()), float64(dst))}
			}
			return send
		}
		if c.Rank() == n-1 {
			countedExchange.Wait()
		}
		before := runtime.NumGoroutine()
		var reqA, reqB *MatRequest
		if c.Rank()%2 == 0 {
			reqA = c.IAlltoallv(0, mk(1))
			reqB = c.IAlltoallv(1, mk(100))
		} else {
			reqB = c.IAlltoallv(1, mk(100))
			reqA = c.IAlltoallv(0, mk(1))
		}
		grewExchange := runtime.NumGoroutine() - before
		if c.Rank() != n-1 {
			countedExchange.Done()
		}
		recvB, recvA := reqB.Wait(), reqA.Wait()
		for from := 0; from < n; from++ {
			if real(recvA[from][0]) != float64(from) {
				return fmt.Errorf("slot 0 from %d: %v", from, recvA[from])
			}
			if real(recvB[from][0]) != 100*float64(from) {
				return fmt.Errorf("slot 1 from %d: %v", from, recvB[from])
			}
		}

		if c.Rank() == 0 {
			countedReduce.Wait()
		}
		before = runtime.NumGoroutine()
		req := c.IAllreduce(2, []complex128{1})
		grewReduce := runtime.NumGoroutine() - before
		if c.Rank() != 0 {
			countedReduce.Done()
		}
		if got := req.Wait(); got[0] != n {
			return fmt.Errorf("IAllreduce = %v, want %d", got, n)
		}
		if grewExchange > 0 || (c.Rank() != 0 && grewReduce > 0) {
			return fmt.Errorf("goroutines between post and wait: +%d for two IAlltoallv, +%d for IAllreduce; a request must complete on its waiter",
				grewExchange, grewReduce)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Collectives["Alltoallv"]; got != 2 {
		t.Fatalf("Alltoallv count = %d, want 2", got)
	}
}

func TestIAllreduceMatchesBlocking(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		data := []complex128{complex(float64(c.Rank()+1), 0), 1i}
		want := c.Allreduce(data)
		req := c.IAllreduce(0, data)
		data[0] = -999 // post-time copy
		got := req.Wait()
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("IAllreduce[%d] = %v, want %v", i, got[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both forms are the one collective and count under the one name —
	// nothing is booked as the blocking form's Reduce and Bcast legs.
	st := w.Stats()
	if st.Collectives["Allreduce"] != 2 || st.Collectives["Reduce"]+st.Collectives["Bcast"] != 0 {
		t.Fatalf("collective counts = %v, want 2 Allreduce only", st.Collectives)
	}
	// Volume, each: (n−1) contributions to rank 0 plus (n−1) copies back.
	if want := int64(2 * 2 * (n - 1) * 2 * 16); st.CollectiveBytes["Allreduce"] != want || st.BytesSent != want {
		t.Fatalf("Allreduce bytes = %d of %d sent, want %d", st.CollectiveBytes["Allreduce"], st.BytesSent, want)
	}
}

// TestConcurrentIAllreduceSlots posts two reductions per rank in opposite
// orders; slot matching must keep them independent.
func TestConcurrentIAllreduceSlots(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		a := []complex128{1}
		b := []complex128{10}
		var ra, rb *VecRequest
		if c.Rank() == 1 {
			rb = c.IAllreduce(5, b)
			ra = c.IAllreduce(2, a)
		} else {
			ra = c.IAllreduce(2, a)
			rb = c.IAllreduce(5, b)
		}
		if got := ra.Wait(); real(got[0]) != n {
			return fmt.Errorf("slot 2 sum = %v", got)
		}
		if got := rb.Wait(); real(got[0]) != 10*n {
			return fmt.Errorf("slot 5 sum = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingSizeOneWorld(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) error {
		if got := c.IAllreduce(0, []complex128{7}).Wait(); got[0] != 7 {
			return fmt.Errorf("size-1 IAllreduce = %v", got)
		}
		before := runtime.NumGoroutine()
		req := c.IAlltoallv(1, [][]complex128{{3, 4}})
		if grew := runtime.NumGoroutine() - before; grew > 0 {
			return fmt.Errorf("IAlltoallv started %d goroutines; the request completes on its waiter", grew)
		}
		recv := req.Wait()
		if len(recv) != 1 || len(recv[0]) != 2 || recv[0][0] != 3 {
			return fmt.Errorf("size-1 IAlltoallv = %v", recv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.BytesSent != 0 {
		t.Fatalf("size-1 nonblocking ops must move no bytes, got %d", st.BytesSent)
	}
}

func TestIAlltoallvZeroAndSelfRows(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		// Every rank fills only its self row; all cross rows are empty.
		send := make([][]complex128, n)
		send[c.Rank()] = []complex128{complex(float64(c.Rank()), 0)}
		recv := c.IAlltoallv(0, send).Wait()
		for from := 0; from < n; from++ {
			want := 0
			if from == c.Rank() {
				want = 1
			}
			if len(recv[from]) != want {
				return fmt.Errorf("rank %d: recv[%d] has %d elements, want %d",
					c.Rank(), from, len(recv[from]), want)
			}
		}
		if real(recv[c.Rank()][0]) != float64(c.Rank()) {
			return fmt.Errorf("self row corrupted: %v", recv[c.Rank()])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.BytesSent != 0 {
		t.Fatalf("self and zero-length rows must be free, got %d bytes", st.BytesSent)
	}
}

// TestCollectiveByteAttribution checks the per-collective accounting sums
// to the global byte counter with every operation labelled.
func TestCollectiveByteAttribution(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		c.Bcast(0, []complex128{1, 2})
		c.IAllreduce(0, []complex128{complex(float64(c.Rank()), 0)}).Wait()
		send := make([][]complex128, n)
		for dst := 0; dst < n; dst++ {
			send[dst] = []complex128{5}
		}
		c.IAlltoallv(1, send).Wait()
		if c.Rank() == 0 {
			c.Send(1, 1, []complex128{9})
		} else if c.Rank() == 1 {
			c.Recv(0, 1)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	var sum int64
	for _, b := range st.CollectiveBytes {
		sum += b
	}
	if sum != st.BytesSent {
		t.Fatalf("attributed bytes %d != total %d (%+v)", sum, st.BytesSent, st.CollectiveBytes)
	}
	checks := map[string]int64{
		"Bcast":     (n - 1) * 2 * 16,
		"Allreduce": 2 * (n - 1) * 16,
		"Alltoallv": n * (n - 1) * 16,
		"Send":      16,
		"Barrier":   0,
	}
	for op, want := range checks {
		if got := st.CollectiveBytes[op]; got != want {
			t.Errorf("%s bytes = %d, want %d", op, got, want)
		}
	}
}

// TestSizeOneWorldSpawnsNothing pins that a one-rank world adds no
// goroutine: World.Run runs the rank on the caller's goroutine, and an
// IAllreduce completes at post — its result is ready before Wait, with
// no fold goroutine behind it — while still counting as one Allreduce.
func TestSizeOneWorldSpawnsNothing(t *testing.T) {
	w := NewWorld(1)
	before := runtime.NumGoroutine()
	ran := false
	err := w.Run(func(c *Comm) error {
		ran = true
		if grew := runtime.NumGoroutine() - before; grew > 0 {
			return fmt.Errorf("World.Run started %d goroutines for one rank", grew)
		}
		req := c.IAllreduce(0, []complex128{5})
		if grew := runtime.NumGoroutine() - before; grew > 0 {
			return fmt.Errorf("IAllreduce started %d goroutines on a one-rank world", grew)
		}
		select {
		case got := <-req.root:
			req.root <- got
		default:
			return fmt.Errorf("one-rank IAllreduce not complete at post")
		}
		if got := req.Wait(); got[0] != 5 {
			return fmt.Errorf("size-1 IAllreduce = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("World.Run did not run the rank")
	}
	if st := w.Stats(); st.Collectives["Allreduce"] != 1 || st.BytesSent != 0 {
		t.Fatalf("size-1 IAllreduce: collectives %v, bytes %d; want one Allreduce and no bytes", st.Collectives, st.BytesSent)
	}
	if err := w.Run(func(*Comm) error { return fmt.Errorf("boom") }); err == nil || err.Error() != "comm: rank 0: boom" {
		t.Fatalf("size-1 Run error = %v, want it wrapped with the rank", err)
	}
}
