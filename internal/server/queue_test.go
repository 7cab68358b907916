package server

import (
	"errors"
	"testing"
	"time"
)

func qjob(id, tenant string, priority int) *job {
	return &job{id: id, tenant: tenant, priority: priority}
}

func mustPop(t *testing.T, q *queue) *job {
	t.Helper()
	j, ok := q.Pop()
	if !ok {
		t.Fatal("Pop: queue closed")
	}
	return j
}

// A tenant flooding the queue must not starve a light tenant: with one
// of A's jobs holding the only slot, B's single job goes next, before
// A's remaining backlog.
func TestQueueFairShare(t *testing.T) {
	q := newQueue(16)
	for _, j := range []*job{
		qjob("a1", "A", 0), qjob("a2", "A", 0), qjob("a3", "A", 0), qjob("b1", "B", 0),
	} {
		if err := q.Push(j); err != nil {
			t.Fatal(err)
		}
	}
	// No Done calls in between: every popped job keeps occupying its
	// tenant's share, the single-slot worst case.
	var order []string
	for range 4 {
		order = append(order, mustPop(t, q).id)
	}
	want := []string{"a1", "b1", "a2", "a3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// Done returns the share: after A's job finishes, A and B alternate.
func TestQueueFairShareAlternates(t *testing.T) {
	q := newQueue(16)
	for _, j := range []*job{
		qjob("a1", "A", 0), qjob("a2", "A", 0), qjob("b1", "B", 0), qjob("b2", "B", 0),
	} {
		if err := q.Push(j); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for range 4 {
		j := mustPop(t, q)
		order = append(order, j.id)
		q.Done(j.tenant) // single slot: finish before the next dispatch
	}
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

func TestQueuePriorityWithinTenant(t *testing.T) {
	q := newQueue(16)
	for _, j := range []*job{
		qjob("low1", "A", 0), qjob("low2", "A", 0), qjob("high", "A", 5), qjob("mid", "A", 2),
	} {
		if err := q.Push(j); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"high", "mid", "low1", "low2"}
	for _, w := range want {
		if got := mustPop(t, q).id; got != w {
			t.Fatalf("popped %s, want %s", got, w)
		}
	}
}

func TestQueueFull(t *testing.T) {
	q := newQueue(2)
	if err := q.Push(qjob("1", "A", 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(qjob("2", "B", 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(qjob("3", "C", 0)); !errors.Is(err, errQueueFull) {
		t.Fatalf("Push beyond capacity: err = %v, want errQueueFull", err)
	}
	queued, running := q.Stats()
	if queued != 2 || running != 0 {
		t.Fatalf("Stats = (%d, %d), want (2, 0)", queued, running)
	}
}

func TestQueueRemove(t *testing.T) {
	q := newQueue(16)
	q.Push(qjob("1", "A", 0))
	q.Push(qjob("2", "A", 0))
	if j := q.Remove("2"); j == nil || j.id != "2" {
		t.Fatalf("Remove(2) = %v", j)
	}
	if j := q.Remove("2"); j != nil {
		t.Fatalf("second Remove(2) = %v, want nil", j)
	}
	if got := mustPop(t, q).id; got != "1" {
		t.Fatalf("popped %s, want 1", got)
	}
	if j := q.Remove("1"); j != nil {
		t.Fatalf("Remove of a popped job = %v, want nil", j)
	}
}

func TestQueueCloseUnblocksPop(t *testing.T) {
	q := newQueue(16)
	done := make(chan bool)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop on a closed empty queue returned a job")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop did not unblock on Close")
	}
}

// Close drains what is already queued before reporting closed — the
// worker shutdown path finalizes those jobs as cancelled.
func TestQueuePopDrainsAfterClose(t *testing.T) {
	q := newQueue(16)
	q.Push(qjob("1", "A", 0))
	q.Close()
	if got := mustPop(t, q).id; got != "1" {
		t.Fatalf("popped %s, want 1", got)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after drain returned a job")
	}
}
