package comm

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestSendRecvOrdering(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []complex128{1})
			c.Send(1, 7, []complex128{2})
			c.Send(1, 9, []complex128{3})
			return nil
		}
		// Tag 9 can be received before tag 7 (independent queues)...
		if got := c.Recv(0, 9); got[0] != 3 {
			return fmt.Errorf("tag 9 payload %v", got)
		}
		// ...while same-tag messages preserve send order.
		if got := c.Recv(0, 7); got[0] != 1 {
			return fmt.Errorf("first tag-7 payload %v", got)
		}
		if got := c.Recv(0, 7); got[0] != 2 {
			return fmt.Errorf("second tag-7 payload %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []complex128{42}
			c.Send(1, 1, buf)
			buf[0] = 0 // mutation after send must not be visible
			return nil
		}
		if got := c.Recv(0, 1); got[0] != 42 {
			return fmt.Errorf("payload was not copied: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	var sum atomic.Int64
	err := w.Run(func(c *Comm) error {
		var data []complex128
		if c.Rank() == 2 {
			data = []complex128{10, 20}
		}
		got := c.Bcast(2, data)
		sum.Add(int64(real(got[0]) + real(got[1])))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 30*n {
		t.Fatalf("broadcast sum = %d", sum.Load())
	}
	st := w.Stats()
	if st.Collectives["Bcast"] != 1 {
		t.Fatalf("Bcast count = %d", st.Collectives["Bcast"])
	}
	// Volume: (n−1) ranks × 2 elements × 16 bytes.
	if st.BytesSent != int64(n-1)*2*16 {
		t.Fatalf("Bcast bytes = %d", st.BytesSent)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		data := []complex128{complex(float64(c.Rank()), 1)}
		sum := c.Reduce(0, data)
		if c.Rank() == 0 {
			if real(sum[0]) != 0+1+2+3 || imag(sum[0]) != n {
				return fmt.Errorf("reduce got %v", sum)
			}
		} else if sum != nil {
			return fmt.Errorf("non-root should get nil")
		}
		all := c.Allreduce(data)
		if real(all[0]) != 6 {
			return fmt.Errorf("allreduce got %v", all)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		send := make([][]complex128, n)
		for dst := 0; dst < n; dst++ {
			// Variable-size buffers: dst+1 elements encoding (src, dst).
			buf := make([]complex128, dst+1)
			for i := range buf {
				buf[i] = complex(float64(c.Rank()), float64(dst))
			}
			send[dst] = buf
		}
		recv := c.Alltoallv(send)
		for from := 0; from < n; from++ {
			if len(recv[from]) != c.Rank()+1 {
				return fmt.Errorf("rank %d: recv[%d] has %d elements", c.Rank(), from, len(recv[from]))
			}
			for _, v := range recv[from] {
				if real(v) != float64(from) || imag(v) != float64(c.Rank()) {
					return fmt.Errorf("rank %d: wrong payload from %d: %v", c.Rank(), from, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Collectives["Alltoallv"] != 1 {
		t.Fatalf("Alltoallv count = %d", st.Collectives["Alltoallv"])
	}
}

func TestBarrier(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	var phase atomic.Int64
	err := w.Run(func(c *Comm) error {
		phase.Add(1)
		c.Barrier()
		// After the barrier every rank must observe all n increments.
		if phase.Load() != n {
			return fmt.Errorf("barrier leaked: phase %d", phase.Load())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) error {
		c.Send(0, 3, []complex128{1, 2, 3})
		got := c.Recv(0, 3)
		if len(got) != 3 {
			return fmt.Errorf("self message lost")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.BytesSent != 0 || st.Sends != 0 {
		t.Fatalf("self traffic should be free, got %+v", st)
	}
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, make([]complex128, 10))
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.BytesSent != 160 || st.Sends != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestAlltoallvZeroLengthRows(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		// Only rank 0 → rank 2 carries payload; every other row is empty
		// (nil or zero-length), the common case for sparse exchanges.
		send := make([][]complex128, n)
		if c.Rank() == 0 {
			send[2] = []complex128{7}
		}
		recv := c.Alltoallv(send)
		for from := 0; from < n; from++ {
			want := 0
			if c.Rank() == 2 && from == 0 {
				want = 1
			}
			if len(recv[from]) != want {
				return fmt.Errorf("rank %d: recv[%d] has %d elements, want %d",
					c.Rank(), from, len(recv[from]), want)
			}
		}
		if c.Rank() == 2 && recv[0][0] != 7 {
			return fmt.Errorf("payload corrupted: %v", recv[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.BytesSent != 16 {
		t.Fatalf("only the one non-empty row should count: %d bytes", st.BytesSent)
	}
}

func TestAlltoallvSelfRow(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		send := make([][]complex128, 2)
		send[c.Rank()] = []complex128{complex(float64(c.Rank()), 0)} // self-send row
		recv := c.Alltoallv(send)
		if len(recv[c.Rank()]) != 1 || real(recv[c.Rank()][0]) != float64(c.Rank()) {
			return fmt.Errorf("self row lost: %v", recv[c.Rank()])
		}
		if len(recv[1-c.Rank()]) != 0 {
			return fmt.Errorf("unexpected cross traffic: %v", recv[1-c.Rank()])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.BytesSent != 0 {
		t.Fatalf("self rows must be free, got %d bytes", st.BytesSent)
	}
}

func TestCollectivesOnSizeOneWorld(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) error {
		if sum := c.Reduce(0, []complex128{5}); sum[0] != 5 {
			return fmt.Errorf("size-1 Reduce = %v", sum)
		}
		if all := c.Allreduce([]complex128{3}); all[0] != 3 {
			return fmt.Errorf("size-1 Allreduce = %v", all)
		}
		if got := c.Bcast(0, []complex128{2}); got[0] != 2 {
			return fmt.Errorf("size-1 Bcast = %v", got)
		}
		if got := c.Alltoallv([][]complex128{{9}}); len(got) != 1 || got[0][0] != 9 {
			return fmt.Errorf("size-1 Alltoallv = %v", got)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.BytesSent != 0 {
		t.Fatalf("size-1 collectives must move no bytes, got %d", st.BytesSent)
	}
}
