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
// Ranks are the only goroutines the runtime starts: a request completes on
// its waiter, and a reduction's fold runs in rank 0's Wait, so a non-root
// rank's Wait returns once rank 0 has waited (MPI's progress rule).
//
// Payload ownership: a send copies its data at post time, so the sender
// owns its buffer again as soon as the call returns. The copy belongs to
// the receiver, who gets it from Recv or Wait and may keep it for good —
// or hand it back: MatRequest.Release returns an exchange's rows to the
// receiving mailbox, whose free list for that (source, tag) pays for the
// copy of a later send on the same pair, and a reduction's fold hands back
// the parts it has added up. A released row must not be read again; a row
// that is never released is never reused.
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
// keyed by (source, tag) on receive, plus the payload buffers its owner
// has released, kept per (source, tag) for the next sends on that pair.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    map[key][]message
	free map[key][][]complex128
}

type key struct {
	src, tag int
}

func newMailbox() *mailbox {
	m := &mailbox{q: make(map[key][]message), free: make(map[key][][]complex128)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// take removes and returns the buffer last released on k, or nil.
func (m *mailbox) take(k key) []complex128 {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.free[k]
	if len(l) == 0 {
		return nil
	}
	m.free[k] = l[:len(l)-1]
	return l[len(l)-1]
}

// recycle hands a payload received on k back to the free list.
func (m *mailbox) recycle(k key, buf []complex128) {
	if cap(buf) == 0 {
		return
	}
	m.mu.Lock()
	m.free[k] = append(m.free[k], buf)
	m.mu.Unlock()
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

// Run executes fn concurrently on every rank and waits for completion.
// The first non-nil error is returned. Rank 0 runs on the caller's
// goroutine, so a one-rank world starts none.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 1; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(&Comm{world: w, rank: rank})
		}(r)
	}
	errs[0] = fn(&Comm{world: w})
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
// the caller may reuse its buffer; the copy Recv returns is the
// receiver's to keep. Self-sends are legal (and free).
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
	if to != c.rank {
		c.world.countBytes(int64(len(data))*16, op, tag >= 0)
	}
	box := c.world.boxes[to]
	k := key{c.rank, tag}
	var cp []complex128 // an empty payload arrives as nil
	if len(data) > 0 {
		// Into a released buffer when one is large enough, else into a
		// fresh one.
		cp = append(box.take(k)[:0], data...)
	}
	box.mu.Lock()
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
	c.fold(sum, tagReduce, "Reduce")
	return sum
}

// fold adds every other rank's part, received on tag, into sum in
// ascending rank order: the one association of every reduction, so a sum
// is the same bits whichever collective computed it. A part is read only
// here, so each goes back to the free list once added.
func (c *Comm) fold(sum []complex128, tag int, op string) {
	box := c.world.boxes[c.rank]
	for r := 0; r < c.world.size; r++ {
		if r == c.rank {
			continue
		}
		part := c.Recv(r, tag)
		if len(part) != len(sum) {
			panic("comm: " + op + " length mismatch")
		}
		for i, v := range part {
			sum[i] += v
		}
		box.recycle(key{r, tag}, part)
	}
}

// Allreduce sums every rank's contribution elementwise and returns the
// identical result on all ranks: IAllreduce posted on the blocking
// form's reserved tags and waited at once.
func (c *Comm) Allreduce(data []complex128) []complex128 {
	return c.postAllreduce(tagAllreduceUp, tagAllreduceDown, data).Wait()
}

// Alltoallv exchanges per-destination buffers: send[r] goes to rank r, and
// the returned recv[r] is what rank r sent here. This is the collective
// the DaCe variant's four exchanges use (§6.1.2); the measured volume is
// the sum of all off-diagonal buffer sizes. It is IAlltoallv posted on
// the blocking form's reserved tag and waited at once.
func (c *Comm) Alltoallv(send [][]complex128) [][]complex128 {
	return c.postAlltoallv(tagAlltoall, send).Wait()
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
