// Package comm is an in-process message-passing runtime standing in for
// MPI: ranks are goroutines, links are mailboxes, and every primitive
// counts the bytes and invocations it generates. The decomposition
// experiments of the paper (§5.2, Tables 4–5) run unchanged on this
// runtime, with the communication volume measured instead of modelled.
//
// The primitives mirror the MPI subset the paper uses: point-to-point
// Send/Recv, Bcast, Reduce (sum of complex vectors), and Alltoallv — the
// single collective the communication-avoiding DaCe variant relies on.
// The nonblocking forms (IAlltoallv/IAllreduce, see
// nonblocking.go) return waitable requests so the task-graph runtime can
// overlap collectives with compute; blocking Alltoallv and Allreduce are
// those same operations waited at once, counted under the same names.
package comm

import (
	"fmt"
	"sync"
)

// message is one in-flight transfer. Payloads are complex128 vectors, the
// currency of the quantum transport solver (16 bytes per element).
type message struct {
	tag     int
	payload []complex128
}

// World is a set of ranks and their mailboxes plus global counters.
type World struct {
	size  int
	boxes []*mailbox // indexed by destination rank

	mu          sync.Mutex
	bytesSent   int64
	sends       int64
	collectives map[string]int64
	collBytes   map[string]int64
}

// mailbox is an unbounded ordered queue of messages per destination,
// keyed by (source, tag) on receive.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    map[key][]message
}

type key struct {
	src, tag int
}

func newMailbox() *mailbox {
	m := &mailbox{q: make(map[key][]message)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("comm: world size must be positive")
	}
	w := &World{size: size, collectives: make(map[string]int64), collBytes: make(map[string]int64)}
	w.boxes = make([]*mailbox, size)
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes fn concurrently on every rank and waits for completion.
// The first non-nil error is returned.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("comm: rank %d: %w", r, err)
		}
	}
	return nil
}

// Stats reports the accumulated communication counters.
type Stats struct {
	BytesSent   int64
	Sends       int64            // point-to-point messages
	Collectives map[string]int64 // invocation counts per collective
	// CollectiveBytes attributes the off-rank traffic to the operation
	// that generated it: one entry per collective ("Bcast", "Alltoallv",
	// "Allreduce", ...) plus "Send" for user point-to-point messages. The
	// values sum to BytesSent.
	CollectiveBytes map[string]int64
}

// Stats returns a snapshot of the world's counters.
func (w *World) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	cp := make(map[string]int64, len(w.collectives))
	for k, v := range w.collectives {
		cp[k] = v
	}
	cb := make(map[string]int64, len(w.collBytes))
	for k, v := range w.collBytes {
		cb[k] = v
	}
	return Stats{BytesSent: w.bytesSent, Sends: w.sends, Collectives: cp, CollectiveBytes: cb}
}

// ResetStats clears the counters.
func (w *World) ResetStats() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bytesSent, w.sends = 0, 0
	w.collectives = make(map[string]int64)
	w.collBytes = make(map[string]int64)
}

func (w *World) countBytes(n int64, op string, p2p bool) {
	w.mu.Lock()
	w.bytesSent += n
	w.collBytes[op] += n
	if p2p {
		w.sends++
	}
	w.mu.Unlock()
}

func (w *World) countCollective(name string) {
	w.mu.Lock()
	w.collectives[name]++
	w.mu.Unlock()
}

// Comm is one rank's handle into the world.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers data to rank `to` under `tag`. The payload is copied, so
// the caller may reuse its buffer. Self-sends are legal (and free).
func (c *Comm) Send(to, tag int, data []complex128) {
	c.send(to, tag, data, "Send")
}

// send is the transfer primitive behind Send and every collective: op
// names the operation for the per-collective byte accounting.
// Collective-internal transfers (negative tags) count bytes but not the
// point-to-point message counter.
func (c *Comm) send(to, tag int, data []complex128, op string) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("comm: %s to invalid rank %d", op, to))
	}
	cp := append([]complex128(nil), data...)
	if to != c.rank {
		c.world.countBytes(int64(len(data))*16, op, tag >= 0)
	}
	box := c.world.boxes[to]
	box.mu.Lock()
	k := key{c.rank, tag}
	box.q[k] = append(box.q[k], message{tag: tag, payload: cp})
	box.cond.Broadcast()
	box.mu.Unlock()
}

// Recv blocks until a message from `from` with `tag` arrives and returns
// its payload. Messages from the same (source, tag) arrive in send order.
func (c *Comm) Recv(from, tag int) []complex128 {
	box := c.world.boxes[c.rank]
	box.mu.Lock()
	defer box.mu.Unlock()
	k := key{from, tag}
	for len(box.q[k]) == 0 {
		box.cond.Wait()
	}
	msg := box.q[k][0]
	box.q[k] = box.q[k][1:]
	if len(box.q[k]) == 0 {
		delete(box.q, k)
	}
	return msg.payload
}

// collective tags live in a reserved negative space to avoid clashing
// with user point-to-point tags.
const (
	tagBcast = -1 - iota
	tagReduce
	tagAlltoall
	tagBarrier
	tagGather
	tagAllgather
	tagMaxUp
	tagMaxDown
	tagAllreduceUp
	tagAllreduceDown
)

// Bcast sends root's data to every rank and returns the received copy
// (root returns its own data). Counted as one collective; volume is
// (P−1)·len(data)·16 bytes, the flat-tree cost the paper's model uses.
func (c *Comm) Bcast(root int, data []complex128) []complex128 {
	if c.rank == root {
		c.world.countCollective("Bcast")
		for r := 0; r < c.world.size; r++ {
			if r != root {
				c.send(r, tagBcast, data, "Bcast")
			}
		}
		return data
	}
	return c.Recv(root, tagBcast)
}

// Reduce sums every rank's contribution elementwise at root. Non-root
// ranks return nil.
func (c *Comm) Reduce(root int, data []complex128) []complex128 {
	if c.rank != root {
		c.send(root, tagReduce, data, "Reduce")
		return nil
	}
	c.world.countCollective("Reduce")
	sum := append([]complex128(nil), data...)
	for r := 0; r < c.world.size; r++ {
		if r == root {
			continue
		}
		part := c.Recv(r, tagReduce)
		if len(part) != len(sum) {
			panic("comm: Reduce length mismatch")
		}
		for i, v := range part {
			sum[i] += v
		}
	}
	return sum
}

// Allreduce sums every rank's contribution elementwise and returns the
// identical result on all ranks: IAllreduce posted on the blocking
// form's reserved tags and waited at once.
func (c *Comm) Allreduce(data []complex128) []complex128 {
	return c.postAllreduce("Allreduce", tagAllreduceUp, tagAllreduceDown, data, addInto).Wait()
}

// AllreduceMax combines every rank's contribution with the elementwise
// maximum of the real and imaginary parts independently (MPI_MAX on a
// vector of value pairs) and returns the identical result on all ranks.
// The distributed solver uses it for the mixed-precision error telemetry:
// the global deviation is the worst rank's, not the sum.
func (c *Comm) AllreduceMax(data []complex128) []complex128 {
	return c.postAllreduce("AllreduceMax", tagMaxUp, tagMaxDown, data, maxInto).Wait()
}

func addInto(acc, part []complex128) {
	for i, v := range part {
		acc[i] += v
	}
}

func maxInto(acc, part []complex128) {
	for i, v := range part {
		re, im := real(acc[i]), imag(acc[i])
		if real(v) > re {
			re = real(v)
		}
		if imag(v) > im {
			im = imag(v)
		}
		acc[i] = complex(re, im)
	}
}

// Alltoallv exchanges per-destination buffers: send[r] goes to rank r, and
// the returned recv[r] is what rank r sent here. This is the collective
// the DaCe variant's four exchanges use (§6.1.2); the measured volume is
// the sum of all off-diagonal buffer sizes. It is IAlltoallv posted on
// the blocking form's reserved tag and waited at once.
func (c *Comm) Alltoallv(send [][]complex128) [][]complex128 {
	return c.postAlltoallv("Alltoallv", tagAlltoall, send).Wait()
}

// Gather collects every rank's buffer at root (index = source rank).
// Non-root ranks return nil.
func (c *Comm) Gather(root int, data []complex128) [][]complex128 {
	if c.rank != root {
		c.send(root, tagGather, data, "Gather")
		return nil
	}
	c.world.countCollective("Gather")
	out := make([][]complex128, c.world.size)
	for r := 0; r < c.world.size; r++ {
		if r == root {
			out[r] = append([]complex128(nil), data...)
			continue
		}
		out[r] = c.Recv(r, tagGather)
	}
	return out
}

// Allgather collects every rank's buffer on every rank: the returned
// slice holds rank r's contribution at index r, identical on all ranks.
// Buffers may have different lengths (allgatherv semantics). It is the
// all-to-all exchange with the same row for every destination, counted as
// one "Allgather"; the flat-exchange volume is P·(P−1)·len·16 bytes for
// equal-length buffers.
func (c *Comm) Allgather(data []complex128) [][]complex128 {
	send := make([][]complex128, c.world.size)
	for r := range send {
		send[r] = data
	}
	return c.postAlltoallv("Allgather", tagAllgather, send).Wait()
}

// Barrier synchronizes all ranks (central-coordinator implementation).
func (c *Comm) Barrier() {
	if c.rank == 0 {
		c.world.countCollective("Barrier")
		for r := 1; r < c.world.size; r++ {
			c.Recv(r, tagBarrier)
		}
		for r := 1; r < c.world.size; r++ {
			c.send(r, tagBarrier, nil, "Barrier")
		}
		return
	}
	c.send(0, tagBarrier, nil, "Barrier")
	c.Recv(0, tagBarrier)
}
