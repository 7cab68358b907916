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
// wait no goroutine exists on the request's behalf — for IAlltoallv and
// for IAllreduce, on every rank, the root included. The last rank (for
// the exchanges) and the root (for the reduction) post only once the
// others have counted, so a receiver or fold goroutine, were there one,
// would still be blocked on the missing rank when it is looked for; the
// root counts last, while the others are blocked in Wait on its fold.
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
			reqA = c.IAlltoallv(0, rows(mk(1)))
			reqB = c.IAlltoallv(1, rows(mk(100)))
		} else {
			reqB = c.IAlltoallv(1, rows(mk(100)))
			reqA = c.IAlltoallv(0, rows(mk(1)))
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
		if grewExchange > 0 || grewReduce > 0 {
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

// TestIAllreduceMatchesBlocking: the nonblocking and blocking
// all-reductions and Reduce at rank 0 are one fold — each rank's part
// added in ascending rank order — so all three return the same bits, on
// parts whose sum depends on the association.
func TestIAllreduceMatchesBlocking(t *testing.T) {
	part := func(r int) []complex128 {
		return []complex128{complex(1e16*float64(1-2*(r%2)), 0.1*float64(r+1)), complex(1/float64(r+3), 1e-17*float64(r))}
	}
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("P=%d", n), func(t *testing.T) {
			want := part(0)
			for r := 1; r < n; r++ {
				for i, v := range part(r) {
					want[i] += v
				}
			}
			w := NewWorld(n)
			err := w.Run(func(c *Comm) error {
				data := part(c.Rank())
				blocking := c.Allreduce(data)
				reduced := c.Reduce(0, data)
				req := c.IAllreduce(0, data)
				data[0] = -999 // post-time copy
				got := req.Wait()
				for i := range want {
					if got[i] != want[i] || blocking[i] != want[i] || (c.Rank() == 0 && reduced[i] != want[i]) {
						return fmt.Errorf("rank %d, element %d: IAllreduce %v, Allreduce %v, Reduce %v, want %v in ascending rank order",
							c.Rank(), i, got[i], blocking[i], reduced, want[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Both all-reductions are the one collective and count under
			// the one name — nothing is booked as the blocking form's
			// Reduce and Bcast legs.
			st := w.Stats()
			if st.Collectives["Allreduce"] != 2 || st.Collectives["Reduce"] != 1 || st.Collectives["Bcast"] != 0 {
				t.Fatalf("collective counts = %v, want 2 Allreduce and 1 Reduce", st.Collectives)
			}
			// Volume of each all-reduction: (n−1) contributions to rank 0
			// plus (n−1) copies back; the Reduce moves the first half.
			if want := int64(2 * 2 * (n - 1) * 2 * 16); st.CollectiveBytes["Allreduce"] != want {
				t.Fatalf("Allreduce bytes = %d, want %d", st.CollectiveBytes["Allreduce"], want)
			}
			if want := int64((n - 1) * 2 * 16); st.CollectiveBytes["Reduce"] != want {
				t.Fatalf("Reduce bytes = %d, want %d", st.CollectiveBytes["Reduce"], want)
			}
			if st.BytesSent != st.CollectiveBytes["Allreduce"]+st.CollectiveBytes["Reduce"] {
				t.Fatalf("%d bytes sent, %v attributed", st.BytesSent, st.CollectiveBytes)
			}
		})
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
		req := c.IAlltoallv(1, rows([][]complex128{{3, 4}}))
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
		recv := c.IAlltoallv(0, rows(send)).Wait()
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
		c.IAlltoallv(1, rows(send)).Wait()
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
// IAllreduce starts no fold goroutine — its Wait folds nothing and
// returns the rank's own part — while still counting as one Allreduce.
func TestSizeOneWorldSpawnsNothing(t *testing.T) {
	w := NewWorld(1)
	before := runtime.NumGoroutine()
	ran := false
	err := w.Run(func(c *Comm) error {
		ran = true
		if grew := runtime.NumGoroutine() - before; grew > 0 {
			return fmt.Errorf("World.Run started %d goroutines for one rank", grew)
		}
		data := []complex128{5}
		req := c.IAllreduce(0, data)
		if grew := runtime.NumGoroutine() - before; grew > 0 {
			return fmt.Errorf("IAllreduce started %d goroutines on a one-rank world", grew)
		}
		data[0] = -1 // post-time copy
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

// elem is element i of the row rank src sends rank dst in round k of the
// recycling tests.
func elem(k, src, dst, i int) complex128 {
	return complex(float64(k*100+src*10+dst), float64(i))
}

// rowOf fills row with what src sends dst in round k and returns it.
func rowOf(row []complex128, k, src, dst int) []complex128 {
	for i := range row {
		row[i] = elem(k, src, dst, i)
	}
	return row
}

// checkRow reports whether got is the n-element row src sent in round k.
func checkRow(got []complex128, k, src, dst, n int) error {
	if len(got) != n {
		return fmt.Errorf("round %d row %d→%d: %d elements, want %d", k, src, dst, len(got), n)
	}
	for i, v := range got {
		if want := elem(k, src, dst, i); v != want {
			return fmt.Errorf("round %d row %d→%d, element %d: %v, want %v", k, src, dst, i, v, want)
		}
	}
	return nil
}

// rows is the fill that copies send[dst]: IAlltoallv's data-taking form.
func rows(send [][]complex128) func(int, []complex128) []complex128 {
	return func(dst int, row []complex128) []complex128 { return append(row, send[dst]...) }
}

// fillOf is the fill that writes round k's n-element row from src to dst
// straight into the row it is handed, with no buffer of its own.
func fillOf(k, src, n int) func(int, []complex128) []complex128 {
	return func(dst int, row []complex128) []complex128 {
		for i := 0; i < n; i++ {
			row = append(row, elem(k, src, dst, i))
		}
		return row
	}
}

// recycledRounds is the steady state of the window graph's exchanges at
// P=2: post(c, k) → Wait → Release, round after round, with n-element
// rows. From the second round on every row lands in the buffer released
// the round before, and no payload bytes are allocated — the heap grows
// by less than one row over all later rounds. The barrier closing each
// round makes every release precede the next round's posts, as the
// progress rule does in the window graph.
func recycledRounds(t *testing.T, n int, post func(c *Comm, k int) *MatRequest) {
	t.Helper()
	const rounds = 8
	w := NewWorld(2)
	var first, last runtime.MemStats
	err := w.Run(func(c *Comm) error {
		me := c.Rank()
		prev := make([]*complex128, 2)
		for k := 0; k < rounds; k++ {
			req := post(c, k)
			recv := req.Wait()
			for src, row := range recv {
				if err := checkRow(row, k, src, me, n); err != nil {
					return fmt.Errorf("rank %d: %w", me, err)
				}
				if k > 0 && &row[0] != prev[src] {
					return fmt.Errorf("rank %d, round %d: row from %d not in the buffer released the round before", me, k, src)
				}
				prev[src] = &row[0]
			}
			req.Release()
			c.Barrier()
			if me == 0 && k == 0 {
				runtime.ReadMemStats(&first)
			}
		}
		if me == 0 {
			runtime.ReadMemStats(&last)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	grew := last.TotalAlloc - first.TotalAlloc
	if grew >= uint64(n)*16 {
		t.Fatalf("%d more rounds allocated %d bytes, want less than one %d-byte row", rounds-1, grew, n*16)
	}
	t.Logf("%d more rounds allocated %d bytes", rounds-1, grew)
}

// TestReleasedRowsAreRecycled: data-taking posts copy into the rows
// released the round before.
func TestReleasedRowsAreRecycled(t *testing.T) {
	const n = 1 << 14 // 256 KiB rows
	send := [2][][]complex128{}
	recycledRounds(t, n, func(c *Comm, k int) *MatRequest {
		me := c.Rank()
		if send[me] == nil {
			send[me] = [][]complex128{make([]complex128, n), make([]complex128, n)}
		}
		for dst := range send[me] {
			rowOf(send[me][dst], k, me, dst)
		}
		req := c.IAlltoallv(0, rows(send[me]))
		send[me][1-me][0] = -1 // post-time copy: not what arrives
		return req
	})
}

// TestFilledRowsAreRecycled: a fill writes straight into the row released
// the round before, so the steady state allocates nothing for payloads.
func TestFilledRowsAreRecycled(t *testing.T) {
	const n = 1 << 14 // 256 KiB rows
	recycledRounds(t, n, func(c *Comm, k int) *MatRequest {
		return c.IAlltoallv(0, fillOf(k, c.Rank(), n))
	})
}

// unreleasedNeverOverwritten: a row is reused only once released. Each
// rank posts twice on one slot before waiting (the FIFO case), so two
// payloads per (source, slot) are outstanding at once; then it posts
// again while both are still held. Every held row keeps its bits until
// its own Release, whatever is posted meanwhile. post(c, k, n) posts
// round k's n-element rows.
func unreleasedNeverOverwritten(t *testing.T, post func(c *Comm, k, n int) *MatRequest) {
	t.Helper()
	const n = 64
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		me := c.Rank()
		check := func(recv [][]complex128, k int) error {
			for src, row := range recv {
				if err := checkRow(row, k, src, me, n); err != nil {
					return fmt.Errorf("rank %d: %w", me, err)
				}
			}
			return nil
		}
		// Round 0 warms the free lists.
		r0 := post(c, 0, n)
		if err := check(r0.Wait(), 0); err != nil {
			return err
		}
		r0.Release()
		r1, r2 := post(c, 1, n), post(c, 2, n)
		got1, got2 := r1.Wait(), r2.Wait()
		for src := range got1 {
			if &got1[src][0] == &got2[src][0] {
				return fmt.Errorf("rank %d: two outstanding rows from %d share a buffer", me, src)
			}
		}
		r3 := post(c, 3, n)
		got3 := r3.Wait()
		for k, got := range [][][]complex128{got1, got2, got3} {
			if err := check(got, k+1); err != nil {
				return err
			}
		}
		r1.Release()
		r1.Release() // a second Release is a no-op
		r4 := post(c, 4, n)
		if err := check(r4.Wait(), 4); err != nil {
			return err
		}
		if err := check(got2, 2); err != nil {
			return err
		}
		return check(got3, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnreleasedRowsNeverOverwritten: data-taking posts never write into
// a held row.
func TestUnreleasedRowsNeverOverwritten(t *testing.T) {
	unreleasedNeverOverwritten(t, func(c *Comm, k, n int) *MatRequest {
		me := c.Rank()
		return c.IAlltoallv(3, rows([][]complex128{rowOf(make([]complex128, n), k, me, 0), rowOf(make([]complex128, n), k, me, 1)}))
	})
}

// TestAlltoallvFillSkipsUnreleasedRows: a fill is never handed a held row
// either — the fill twin of TestUnreleasedRowsNeverOverwritten.
func TestAlltoallvFillSkipsUnreleasedRows(t *testing.T) {
	unreleasedNeverOverwritten(t, func(c *Comm, k, n int) *MatRequest {
		return c.IAlltoallv(3, fillOf(k, c.Rank(), n))
	})
}

// TestAlltoallvFillOwnAndEmptyRowsArriveNil: a fill that appends nothing —
// the plan's own share, or a peer that needs no segment — delivers nil,
// also when it was handed a recycled row with capacity, and moves no
// bytes.
func TestAlltoallvFillOwnAndEmptyRowsArriveNil(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		me, peer := c.Rank(), (c.Rank()+1)%n
		for k := 0; k < 3; k++ {
			req := c.IAlltoallv(2, func(dst int, row []complex128) []complex128 {
				if k == 0 || dst == peer { // round 0 fills every row, so later rounds get capacity
					return append(row, complex(float64(me), float64(k)))
				}
				return row
			})
			for src, row := range req.Wait() {
				full := k == 0 || src == (me+n-1)%n
				if full && (len(row) != 1 || row[0] != complex(float64(src), float64(k))) {
					return fmt.Errorf("rank %d, round %d: row from %d = %v", me, k, src, row)
				}
				if !full && row != nil {
					return fmt.Errorf("rank %d, round %d: empty fill from %d arrived as %v (cap %d), want nil", me, k, src, row, cap(row))
				}
			}
			req.Release()
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 moves n·(n−1) one-word rows, rounds 1–2 one per rank each.
	if got, want := w.Stats().CollectiveBytes["Alltoallv"], int64(16*(n*(n-1)+2*n)); got != want {
		t.Fatalf("Alltoallv bytes = %d, want %d", got, want)
	}
}

// TestAlltoallvFillCountsFilledBytes: the byte count is 16 per element
// the fill appended — the filled row's length, not the capacity of the
// recycled row it was handed.
func TestAlltoallvFillCountsFilledBytes(t *testing.T) {
	w := NewWorld(2)
	lens := []int{40, 3} // round 0 leaves 40-element rows to recycle
	var want int64
	for _, l := range lens {
		want += 2 * int64(l) * 16
	}
	err := w.Run(func(c *Comm) error {
		for k, l := range lens {
			req := c.IAlltoallv(0, fillOf(k, c.Rank(), l))
			for src, row := range req.Wait() {
				if err := checkRow(row, k, src, c.Rank(), l); err != nil {
					return err
				}
			}
			req.Release()
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().CollectiveBytes["Alltoallv"]; got != want {
		t.Fatalf("Alltoallv bytes = %d, want %d (16 per filled element, self rows free)", got, want)
	}
}

// TestAlltoallvFillOutgrowsRecycledRow: a fill that appends more than the
// recycled row holds grows it (append reallocates) and still delivers
// every element intact; the larger row is what is recycled next.
func TestAlltoallvFillOutgrowsRecycledRow(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		me := c.Rank()
		for k, n := range []int{4, 1000, 1000} {
			req := c.IAlltoallv(1, fillOf(k, me, n))
			for src, row := range req.Wait() {
				if err := checkRow(row, k, src, me, n); err != nil {
					return fmt.Errorf("rank %d: %w", me, err)
				}
			}
			req.Release()
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceReleaseRecycles: VecRequest.Release hands back rank 0's
// sum and every other rank's down-leg row, so from the second round on
// each rank's result lands in the row it released the round before, and
// every rank holds exactly one free row on its slot's tag.
func TestAllreduceReleaseRecycles(t *testing.T) {
	const n, rounds = 3, 4
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		var prev *complex128
		for k := 0; k < rounds; k++ {
			req := c.IAllreduce(1, []complex128{complex(float64(c.Rank()), float64(k)), 1})
			got := req.Wait()
			if want := complex(float64(n*(n-1)/2), float64(n*k)); got[0] != want || got[1] != n {
				return fmt.Errorf("rank %d, round %d: sum %v, want [%v %v]", c.Rank(), k, got, want, complex(n, 0))
			}
			if k > 0 && &got[0] != prev {
				return fmt.Errorf("rank %d, round %d: result not in the row released the round before", c.Rank(), k)
			}
			prev = &got[0]
			req.Release()
			req.Release() // a second Release is a no-op
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, box := range w.boxes {
		tag := nbTag(1, legBcast)
		if r == 0 {
			tag = nbTag(1, legReduce)
		}
		if l := len(box.free[key{0, tag}]); l != 1 {
			t.Fatalf("rank %d holds %d free result rows after %d released reductions, want 1", r, l, rounds)
		}
	}
}

// TestFoldRecyclesParts: rank 0's fold hands every part back once added,
// so repeated all-reductions on one slot keep one buffer per peer.
func TestFoldRecyclesParts(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		for k := 0; k < 4; k++ {
			got := c.IAllreduce(1, []complex128{complex(float64(c.Rank()), float64(k))}).Wait()
			if want := complex(float64(n*(n-1)/2), float64(n*k)); got[0] != want {
				return fmt.Errorf("rank %d, round %d: sum %v, want %v", c.Rank(), k, got[0], want)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := w.boxes[0]
	for src := 1; src < n; src++ {
		if l := len(root.free[key{src, nbTag(1, legReduce)}]); l != 1 {
			t.Fatalf("rank 0 holds %d free parts from rank %d after four reductions, want 1", l, src)
		}
	}
}
