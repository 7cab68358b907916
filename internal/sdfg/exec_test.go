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
// every ready successor lands on the head's worker's deque, so a second
// worker in the record can only have run a leaf it stole.
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

// TestRunAgainReArms runs one graph on one executor repeatedly: every Run
// executes every node exactly once after its dependencies, the trace is
// rewritten each time, and once the executor is armed for the graph a
// Run allocates nothing of its own (starting a worker goroutine may
// allocate a runtime descriptor now and then, which the bound of less
// than one per Run absorbs).
func TestRunAgainReArms(t *testing.T) {
	const fan = 16
	var runs [2 + fan]atomic.Int64
	g := New()
	head := g.Add(Spec{Label: "head", Run: func() error { runs[0].Add(1); return nil }})
	leaves := make([]NodeID, fan)
	for i := range leaves {
		leaves[i] = g.Add(Spec{Label: "leaf", Run: func() error {
			if runs[0].Load() != runs[2+i].Load()+1 {
				return errors.New("leaf ran before its head")
			}
			runs[2+i].Add(1)
			return nil
		}}, head)
	}
	g.Add(Spec{Label: "tail", Run: func() error { runs[1].Add(1); return nil }}, leaves...)
	ex := NewExecutor(3)
	for k := 1; k <= 5; k++ {
		tr, err := ex.Run(g)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != int64(k) {
				t.Fatalf("run %d: node slot %d ran %d times in total, want %d", k, i, got, k)
			}
		}
		if len(tr.Spans) != g.Len() || tr.Spans[g.Len()-1].End < tr.Spans[0].End {
			t.Fatalf("run %d: trace %d spans, tail ends %v before head %v", k, len(tr.Spans), tr.Spans[g.Len()-1].End, tr.Spans[0].End)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ex.Run(g); err != nil {
			t.Error(err)
		}
	}); n != 0 {
		t.Errorf("%v allocations per Run of an armed graph, want 0", n)
	}
}

// TestRunningNodeReadsSpans: a running node reads the executor's record —
// its own start, its end not yet stamped, and the whole span of every
// node it depends on, directly or transitively, each ended before this
// node started. Under -race on a pool of four workers the reads are
// ordered by the scheduling lock alone.
func TestRunningNodeReadsSpans(t *testing.T) {
	const width, layers = 6, 5
	ex := NewExecutor(4)
	g := New()
	ids := make([]NodeID, 0, width*layers)
	preds := make([]map[NodeID]bool, 0, width*layers) // transitive predecessors
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			n := len(ids)
			var deps []NodeID
			anc := map[NodeID]bool{}
			if l > 0 {
				for _, j := range []int{n - width, (l-1)*width + (i+1)%width} {
					deps = append(deps, ids[j])
					anc[ids[j]] = true
					for p := range preds[j] {
						anc[p] = true
					}
				}
			}
			kind := Kind(n % 2)
			ids = append(ids, g.Add(Spec{Label: fmt.Sprint(n), Kind: kind, Run: func() error {
				self := ex.Span(ids[n])
				if self.Kind != kind || self.End != 0 {
					return fmt.Errorf("own span %+v while running", self)
				}
				for p := range anc {
					sp := ex.Span(p)
					if sp.Start > sp.End || sp.End > self.Start {
						return fmt.Errorf("predecessor span %+v, own start %v", sp, self.Start)
					}
				}
				time.Sleep(10 * time.Microsecond)
				return nil
			}}, deps...))
			preds = append(preds, anc)
		}
	}
	for k := 0; k < 10; k++ {
		tr, err := ex.Run(g)
		if err != nil {
			t.Fatalf("run %d: %v", k, err)
		}
		for _, sp := range tr.Spans {
			if sp.Start < 0 || sp.End > tr.Wall {
				t.Fatalf("run %d: span %+v outside the run [0, %v]", k, sp, tr.Wall)
			}
		}
	}
}

// TestConcurrentNodesReadOwnWorkerFromSpan: the worker a running node
// reads from its own span is the one the trace records for it, and two
// nodes running at once read distinct workers — what lets a node index
// per-worker storage by it. Each node waits for the other to start, so
// on two workers they must overlap.
func TestConcurrentNodesReadOwnWorkerFromSpan(t *testing.T) {
	ex := NewExecutor(2)
	g := New()
	var seen [2]int
	started := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	var ids [2]NodeID
	for k := range ids {
		ids[k] = g.Add(Spec{Label: fmt.Sprint(k), Run: func() error {
			seen[k] = ex.Span(ids[k]).Worker
			started[k] <- struct{}{}
			select {
			case <-started[1-k]:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("node %d: node %d never started beside it", k, 1-k)
			}
		}})
	}
	for run := 0; run < 20; run++ {
		tr, err := ex.Run(g)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if seen[0] == seen[1] {
			t.Fatalf("run %d: both running nodes read worker %d", run, seen[0])
		}
		for k, id := range ids {
			if w := tr.Spans[id].Worker; seen[k] != w || w < 0 || w > 1 {
				t.Fatalf("run %d: node %d read worker %d, the trace records %d", run, k, seen[k], w)
			}
		}
	}
}
