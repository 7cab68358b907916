package server

import (
	"errors"
	"sync"
)

// errQueueFull is the admission-control signal: the bounded queue is at
// capacity and the caller must shed load (HTTP 429 + Retry-After).
var errQueueFull = errors.New("server: admission queue full")

// queue is the fair-share admission queue in front of the solver slots.
// Jobs wait in one FIFO per tenant, ordered by priority within the
// tenant (higher first, stable for equal priorities); dispatch picks the
// tenant with the fewest jobs currently occupying slots, breaking ties
// toward the least recently served tenant — so a tenant flooding the
// queue cannot starve a light tenant, but idle capacity still goes to
// whoever has work.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	closed bool

	size     int
	pending  map[string][]*job
	inflight map[string]int   // jobs of this tenant currently holding a slot
	served   map[string]int64 // tick of the tenant's most recent dispatch
	tick     int64
}

func newQueue(capacity int) *queue {
	q := &queue{
		cap:      capacity,
		pending:  map[string][]*job{},
		inflight: map[string]int{},
		served:   map[string]int64{},
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push admits a job or fails with errQueueFull. Within the tenant's
// FIFO the job is placed after the last job of equal or higher priority.
func (q *queue) Push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errors.New("server: queue closed")
	}
	if q.size >= q.cap {
		return errQueueFull
	}
	list := q.pending[j.tenant]
	i := len(list)
	for i > 0 && list[i-1].priority < j.priority {
		i--
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = j
	q.pending[j.tenant] = list
	q.size++
	q.cond.Signal()
	return nil
}

// Pop blocks until a job is available under the fair-share policy (or
// the queue is closed: ok = false). The popped job counts against its
// tenant's inflight share until Done is called.
func (q *queue) Pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if t := q.pick(); t != "" {
			list := q.pending[t]
			j := list[0]
			copy(list, list[1:])
			list = list[:len(list)-1]
			if len(list) == 0 {
				delete(q.pending, t)
			} else {
				q.pending[t] = list
			}
			q.size--
			q.inflight[t]++
			q.tick++
			q.served[t] = q.tick
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// pick chooses the tenant to serve next; "" when nothing is pending.
func (q *queue) pick() string {
	best := ""
	for t, list := range q.pending {
		if len(list) == 0 {
			continue
		}
		if best == "" || q.before(t, best) {
			best = t
		}
	}
	return best
}

// before orders tenants for dispatch: fewer slots in use first, then
// least recently served, then name — a deterministic total order.
func (q *queue) before(a, b string) bool {
	if q.inflight[a] != q.inflight[b] {
		return q.inflight[a] < q.inflight[b]
	}
	if q.served[a] != q.served[b] {
		return q.served[a] < q.served[b]
	}
	return a < b
}

// Done releases the tenant's inflight share after its popped job
// finished (or was skipped).
func (q *queue) Done(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight[tenant] > 0 {
		q.inflight[tenant]--
	}
}

// Remove deletes a still-queued job by id — cancellation before
// dispatch. Returns the job, or nil if it was already popped (the
// worker owns it now) or never queued.
func (q *queue) Remove(id string) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for t, list := range q.pending {
		for i, j := range list {
			if j.id != id {
				continue
			}
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(q.pending, t)
			} else {
				q.pending[t] = list
			}
			q.size--
			return j
		}
	}
	return nil
}

// Stats reports the queued and running job counts.
func (q *queue) Stats() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, n := range q.inflight {
		running += n
	}
	return q.size, running
}

// Close wakes every blocked Pop. Jobs already queued are still handed
// out (the shutting-down workers finalize them as cancelled); once the
// queue drains, Pop reports ok = false.
func (q *queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
