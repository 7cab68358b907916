// Nonblocking primitives: the MPI_I* subset the task-graph runtime
// (internal/sdfg) schedules around. Posting returns a waitable request
// immediately; the payload is copied at post time, so the caller may
// reuse its buffers right away. Each nonblocking collective takes an
// explicit slot: concurrently outstanding collectives on the same
// communicator must use distinct slots, and a slot's posts match across
// ranks by slot — not by call order, which a dynamic scheduler does not
// preserve. Slots may be reused once the previous operation on them has
// completed on all ranks (the per-(source, tag) FIFO mailboxes keep even
// back-to-back reuse ordered).
package comm

import "fmt"

// maxSlot bounds the nonblocking slot space (tags are mapped into a
// reserved negative range below the blocking collective tags).
const maxSlot = 1 << 16

// nbTag maps a (slot, leg) pair into the reserved nonblocking tag space.
func nbTag(slot, leg int) int {
	if slot < 0 || slot >= maxSlot {
		panic(fmt.Sprintf("comm: nonblocking slot %d out of range", slot))
	}
	const nbBase = -64 // below the blocking collective tags
	return nbBase - slot*4 - leg
}

const (
	legAlltoall = iota
	legReduce
	legBcast
)

// A request completes on its waiter: everything a rank contributes is
// sent (counted and copied) when the operation is posted, so what is left
// is receiving, and Wait does that on the caller's goroutine. Only rank
// 0's fold-and-send-back leg of a reduction runs on a goroutine of its
// own — it is the progress engine the other ranks' waits depend on.

// VecRequest is the handle of a vector-valued collective (IAllreduce).
type VecRequest struct {
	c    *Comm
	tag  int               // where a non-root rank receives the result
	root chan []complex128 // rank 0: the folded result
}

// Wait blocks until the collective completes and returns the reduced
// vector. Call exactly once.
func (r *VecRequest) Wait() []complex128 {
	if r.root != nil {
		return <-r.root
	}
	return r.c.Recv(0, r.tag)
}

// MatRequest is the handle of a per-rank-buffer collective (IAlltoallv).
type MatRequest struct {
	c   *Comm
	tag int
}

// Wait blocks until every row has arrived; row r is what rank r sent
// here. Call exactly once.
func (r *MatRequest) Wait() [][]complex128 {
	recv := make([][]complex128, r.c.world.size)
	for src := range recv {
		recv[src] = r.c.Recv(src, r.tag)
	}
	return recv
}

// IAlltoallv posts the nonblocking form of Alltoallv on the given slot.
// All sends happen (and are counted) at post time; Wait blocks until
// every rank's buffer for this rank has arrived.
func (c *Comm) IAlltoallv(slot int, send [][]complex128) *MatRequest {
	return c.postAlltoallv("Alltoallv", nbTag(slot, legAlltoall), send)
}

// postAlltoallv is the one all-to-all exchange: the slotted nonblocking
// Alltoallv and its blocking form differ only in the tag they match on
// and in when they wait, so both count as one "Alltoallv"; Allgather is
// the same exchange under its own name.
func (c *Comm) postAlltoallv(name string, tag int, send [][]complex128) *MatRequest {
	if len(send) != c.world.size {
		panic("comm: " + name + " needs one buffer per rank")
	}
	if c.rank == 0 {
		c.world.countCollective(name)
	}
	for r := 0; r < c.world.size; r++ {
		c.send(r, tag, send[r], name)
	}
	return &MatRequest{c: c, tag: tag}
}

// IAllreduce posts a nonblocking elementwise sum over all ranks on the
// given slot.
func (c *Comm) IAllreduce(slot int, data []complex128) *VecRequest {
	return c.postAllreduce("Allreduce", nbTag(slot, legReduce), nbTag(slot, legBcast), data, addInto)
}

// postAllreduce is the one all-reduction, behind the slotted nonblocking
// form and the blocking forms alike: rank 0 folds the contributions into
// its own in ascending rank order with combine (one association order, so
// IAllreduce and Allreduce are bitwise interchangeable) and sends the
// result back to everyone. Counted as one collective under name, moving
// 2·(P−1)·len·16 bytes.
func (c *Comm) postAllreduce(name string, tagR, tagB int, data []complex128, combine func(acc, part []complex128)) *VecRequest {
	if c.rank != 0 {
		c.send(0, tagR, data, name)
		return &VecRequest{c: c, tag: tagB}
	}
	c.world.countCollective(name)
	cp := append([]complex128(nil), data...)
	req := &VecRequest{root: make(chan []complex128, 1)}
	go func() {
		for r := 1; r < c.world.size; r++ {
			part := c.Recv(r, tagR)
			if len(part) != len(cp) {
				panic("comm: " + name + " length mismatch")
			}
			combine(cp, part)
		}
		for r := 1; r < c.world.size; r++ {
			c.send(r, tagB, cp, name)
		}
		req.root <- cp
	}()
	return req
}
