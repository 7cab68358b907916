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
//
// Who owns a posted payload: the copy made at post time is the
// receiver's. The rows an exchange's Wait returns stay valid until the
// waiter calls MatRequest.Release, which hands them back to its mailbox;
// from then on a later post from the same source on the same slot may
// copy into them, so no row may be read after its Release. A row is
// reused only once released: two posts outstanding on one slot land in
// two buffers, and a request never released keeps its rows for good
// (the blocking Alltoallv's rows are never released). An all-reduction's
// parts are released by rank 0's fold as soon as they are added up.
//
// A request completes on its waiter: everything a rank contributes is
// sent (counted and copied) when the operation is posted, so what is left
// is receiving, and Wait does that on the caller's goroutine — on every
// rank, at every world size; no operation starts a goroutine. Rank 0's
// Wait of a reduction is also where the contributions are folded and the
// sum is sent back, so the progress rule is MPI's: a non-root rank's Wait
// of a reduction returns once rank 0 has waited on it. A caller must
// therefore never make rank 0's Wait depend on something a peer does only
// after its own Wait of the same reduction returns.
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

// VecRequest is the handle of a vector-valued collective (IAllreduce).
type VecRequest struct {
	c          *Comm
	tagR, tagB int          // where rank 0 receives the parts, and everyone the sum
	sum        []complex128 // rank 0: its own part, copied at post
}

// Wait blocks until the collective completes and returns the reduced
// vector. Call exactly once.
func (r *VecRequest) Wait() []complex128 {
	c := r.c
	if c.rank != 0 {
		return c.Recv(0, r.tagB)
	}
	c.fold(r.sum, r.tagR, "Allreduce")
	for dst := 1; dst < c.world.size; dst++ {
		c.send(dst, r.tagB, r.sum, "Allreduce")
	}
	return r.sum
}

// MatRequest is the handle of a per-rank-buffer collective (IAlltoallv).
type MatRequest struct {
	c    *Comm
	tag  int
	recv [][]complex128 // what Wait returned, until Release
}

// Wait blocks until every row has arrived; row r is what rank r sent
// here. The rows stay valid until Release. Call exactly once.
func (r *MatRequest) Wait() [][]complex128 {
	r.recv = make([][]complex128, r.c.world.size)
	for src := range r.recv {
		r.recv[src] = r.c.Recv(src, r.tag)
	}
	return r.recv
}

// Release hands the rows Wait returned back to this rank's mailbox, where
// later sends on the same (source, slot) copy into them. The caller must
// be done with every row; a second Release, or one before Wait, is a no-op.
func (r *MatRequest) Release() {
	box := r.c.world.boxes[r.c.rank]
	for src, row := range r.recv {
		box.recycle(key{src, r.tag}, row)
	}
	r.recv = nil
}

// IAlltoallv posts the nonblocking form of Alltoallv on the given slot.
// All sends happen (and are counted) at post time; Wait blocks until
// every rank's buffer for this rank has arrived.
func (c *Comm) IAlltoallv(slot int, send [][]complex128) *MatRequest {
	return c.postAlltoallv(nbTag(slot, legAlltoall), send)
}

// postAlltoallv is the one all-to-all exchange: the slotted nonblocking
// Alltoallv and its blocking form differ only in the tag they match on
// and in when they wait, so both count as one "Alltoallv".
func (c *Comm) postAlltoallv(tag int, send [][]complex128) *MatRequest {
	if len(send) != c.world.size {
		panic("comm: Alltoallv needs one buffer per rank")
	}
	if c.rank == 0 {
		c.world.countCollective("Alltoallv")
	}
	for r := 0; r < c.world.size; r++ {
		c.send(r, tag, send[r], "Alltoallv")
	}
	return &MatRequest{c: c, tag: tag}
}

// IAllreduce posts a nonblocking elementwise sum over all ranks on the
// given slot.
func (c *Comm) IAllreduce(slot int, data []complex128) *VecRequest {
	return c.postAllreduce(nbTag(slot, legReduce), nbTag(slot, legBcast), data)
}

// postAllreduce is the one all-reduction, behind the slotted nonblocking
// form and the blocking form alike: each non-root rank sends its part to
// rank 0, whose Wait adds them into its own in ascending rank order (one
// association order, so IAllreduce, Allreduce and Reduce at rank 0 are
// bitwise interchangeable) and sends the sum back to everyone. Counted as
// one "Allreduce", moving 2·(P−1)·len·16 bytes.
func (c *Comm) postAllreduce(tagR, tagB int, data []complex128) *VecRequest {
	req := &VecRequest{c: c, tagR: tagR, tagB: tagB}
	if c.rank != 0 {
		c.send(0, tagR, data, "Allreduce")
		return req
	}
	c.world.countCollective("Allreduce")
	req.sum = append([]complex128(nil), data...)
	return req
}
