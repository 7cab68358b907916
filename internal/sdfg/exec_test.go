package sdfg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunHonorsDependencies runs a diamond many times and checks every
// node executed exactly once with all dependencies finished first.
func TestRunHonorsDependencies(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var mu sync.Mutex
		finished := map[string]bool{}
		mark := func(label string, deps ...string) func() error {
			return func() error {
				mu.Lock()
				defer mu.Unlock()
				for _, d := range deps {
					if !finished[d] {
						return fmt.Errorf("%s ran before %s", label, d)
					}
				}
				if finished[label] {
					return fmt.Errorf("%s ran twice", label)
				}
				finished[label] = true
				return nil
			}
		}
		g := New()
		a := g.Add(Spec{Label: "a", Run: mark("a")})
		b := g.Add(Spec{Label: "b", Run: mark("b", "a")}, a)
		c := g.Add(Spec{Label: "c", Run: mark("c", "a")}, a)
		g.Add(Spec{Label: "d", Run: mark("d", "b", "c")}, b, c)
		tr, err := NewExecutor(4).Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(finished) != 4 {
			t.Fatalf("ran %d nodes, want 4", len(finished))
		}
		if len(tr.Spans) != 4 {
			t.Fatalf("trace has %d spans", len(tr.Spans))
		}
	}
}

// TestRunDrainsAfterError is the collective-safety contract: an erroring
// node must not stop the rest of the graph (other ranks would deadlock in
// their exchanges), and the first error is still reported.
func TestRunDrainsAfterError(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	g := New()
	a := g.Add(Spec{Label: "a", Run: func() error { ran.Add(1); return boom }})
	g.Add(Spec{Label: "b", Run: func() error { ran.Add(1); return nil }}, a)
	g.Add(Spec{Label: "c", Run: func() error { ran.Add(1); return nil }})
	_, err := NewExecutor(2).Run(g)
	if !errors.Is(err, boom) {
		t.Fatalf("expected the node error, got %v", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("%d nodes ran after the error, want all 3", ran.Load())
	}
}

// TestWorkStealingBalances unblocks a wide fan from a single chain head:
// every ready successor lands on one worker's deque, so the other
// workers must steal to share the load.
func TestWorkStealingBalances(t *testing.T) {
	const fan = 64
	g := New()
	head := g.Add(Spec{Label: "head", Run: func() error { return nil }})
	for i := 0; i < fan; i++ {
		g.Add(Spec{
			Label: fmt.Sprintf("leaf/%d", i),
			Run:   func() error { time.Sleep(200 * time.Microsecond); return nil },
		}, head)
	}
	tr, err := NewExecutor(4).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Steals == 0 {
		t.Fatal("a single-source fan must trigger stealing")
	}
	workers := map[int]bool{}
	for _, s := range tr.Spans {
		workers[s.Worker] = true
	}
	if len(workers) < 2 {
		t.Fatalf("only %d workers participated", len(workers))
	}
}

// TestConcurrencyBound checks no more than `workers` nodes run at once.
func TestConcurrencyBound(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	g := New()
	for i := 0; i < 32; i++ {
		g.Add(Spec{Run: func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		}})
	}
	if _, err := NewExecutor(workers).Run(g); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent nodes, pool is %d", p, workers)
	}
}

func TestEmptyGraph(t *testing.T) {
	tr, err := NewExecutor(2).Run(New())
	if err != nil || tr.Wall != 0 {
		t.Fatalf("empty graph: %v %v", tr, err)
	}
}
