package sdfg

import (
	"fmt"
	"sync"
	"time"
)

// Executor runs a graph on a pool of workers with work stealing: a
// worker that completes a node pushes the successors it unblocked onto
// its own deque and pops them LIFO (depth-first, cache-warm); an idle
// worker steals the oldest entry of another worker's deque (FIFO,
// breadth-first), which spreads independent subtrees — the classic
// Cilk/TBB discipline, and the scheduling freedom the SDFG model exposes.
//
// An executor is armed for the graph it runs: the first Run of a graph
// sizes the in-degree, deque and span arrays, and every later Run of the
// same graph re-arms them in place, so running a graph again allocates
// nothing. An executor runs one graph at a time.
type Executor struct {
	workers int

	// The armed graph and its run state. A single mutex guards the
	// scheduling state: the simulated tasks (RGF solves, tile kernels,
	// collective waits) are micro- to milliseconds, so queue contention
	// is negligible and the coarse lock keeps the scheduler trivially
	// race-clean; the stealing *policy* is what shapes the schedule.
	g      *Graph
	indeg  []int32
	deques []deque // per worker: owner pops back, thieves steal front
	done   int
	err    error
	mu     sync.Mutex
	cond   sync.Cond
	wg     sync.WaitGroup
	trace  Trace
	// loops[w] is worker w's goroutine body, built once (starting a
	// prebuilt func value allocates nothing); worker 0 is Run's caller.
	loops []func()
}

// deque is one worker's ready list: q[head:] are the queued nodes. Every
// node is pushed at most once per Run, so capacity for the whole graph
// never grows.
type deque struct {
	q    []NodeID
	head int
}

// NewExecutor returns an executor with the given pool size (minimum 1).
func NewExecutor(workers int) *Executor {
	if workers < 1 {
		workers = 1
	}
	e := &Executor{workers: workers, loops: make([]func(), workers)}
	e.cond.L = &e.mu
	for w := 1; w < workers; w++ {
		e.loops[w] = func() {
			defer e.wg.Done()
			e.work(w)
		}
	}
	return e
}

// Span records when one node ran, on which worker, and its kind.
type Span struct {
	Kind Kind
	// Worker is the number, in [0, workers), of the pool worker that ran
	// the node. It is stamped before the node runs, and no two nodes run
	// on one worker at once, so a running node may index per-worker
	// storage by its own span's Worker.
	Worker     int
	Start, End time.Duration // offsets from Trace.Zero
}

// Trace is the measured execution profile of one Run, and its one clock:
// every node is stamped with its worker and start as it starts and with
// its end as it ends (a running node may read the record: Span), and the
// makespan ends the run.
type Trace struct {
	Spans []Span // indexed by NodeID
	// Zero is the instant Run began, before arming and seeding.
	Zero time.Time
	Wall time.Duration
}

// Run executes every node of g, honoring dependencies. Nodes that return
// an error do not stop the graph: the remaining nodes still run (a rank
// abandoning its collectives would deadlock the other ranks — failure
// agreement is a node's job, not the scheduler's), and the first error is
// returned alongside the trace after the graph drains. The trace is the
// executor's own and is overwritten by its next Run.
func (e *Executor) Run(g *Graph) (*Trace, error) {
	tr := &e.trace
	tr.Zero, tr.Wall = time.Now(), 0
	e.arm(g)
	if g.Len() == 0 {
		return tr, nil
	}
	// Seed the sources round-robin so every worker starts busy.
	w := 0
	for _, node := range g.nodes {
		if e.indeg[node.ID] == 0 {
			d := &e.deques[w%e.workers]
			d.q = append(d.q, node.ID)
			w++
		}
	}

	e.wg.Add(e.workers - 1)
	for wid := 1; wid < e.workers; wid++ {
		go e.loops[wid]()
	}
	e.work(0)
	e.wg.Wait()
	tr.Wall = time.Since(tr.Zero)
	if e.err != nil {
		return tr, fmt.Errorf("sdfg: %w", e.err)
	}
	return tr, nil
}

// Span returns node id's span in the current Run. A running node may read
// its own (End not yet stamped) and that of every node it depends on,
// directly or transitively, whose stamps the scheduling lock orders first.
func (e *Executor) Span(id NodeID) Span { return e.trace.Spans[id] }

// arm sizes the run state for g unless g is the graph the state was
// sized for, and resets it for a new Run.
func (e *Executor) arm(g *Graph) {
	n := g.Len()
	if g != e.g || n != len(e.indeg) {
		e.g = g
		e.indeg = make([]int32, n)
		e.trace.Spans = make([]Span, n)
		e.deques = make([]deque, e.workers)
		for w := range e.deques {
			e.deques[w].q = make([]NodeID, 0, n)
		}
	}
	for _, node := range g.nodes {
		e.indeg[node.ID] = int32(len(node.deps))
	}
	for w := range e.deques {
		e.deques[w] = deque{q: e.deques[w].q[:0]}
	}
	e.done, e.err = 0, nil
}

// work is worker wid's loop: run ready nodes until the graph drains.
func (e *Executor) work(wid int) {
	for {
		id, ok := e.next(wid)
		if !ok {
			return
		}
		node := e.g.nodes[id]
		sp := &e.trace.Spans[id]
		*sp = Span{Kind: node.Kind, Worker: wid, Start: time.Since(e.trace.Zero)}
		var err error
		if node.Run != nil {
			err = node.Run()
		}
		sp.End = time.Since(e.trace.Zero)
		e.finish(wid, node, err)
	}
}

// next blocks until work is available for worker wid or the graph has
// drained, and returns the node to run.
func (e *Executor) next(wid int) (NodeID, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		// Own deque: newest first.
		if d := &e.deques[wid]; len(d.q) > d.head {
			id := d.q[len(d.q)-1]
			d.q = d.q[:len(d.q)-1]
			return id, true
		}
		// Steal: oldest entry of the first non-empty victim.
		for k := 1; k < e.workers; k++ {
			if v := &e.deques[(wid+k)%e.workers]; len(v.q) > v.head {
				id := v.q[v.head]
				v.head++
				return id, true
			}
		}
		if e.done == len(e.indeg) {
			return 0, false
		}
		e.cond.Wait()
	}
}

// finish marks a node complete, records its error, and releases any
// successors whose last dependency it was onto wid's deque.
func (e *Executor) finish(wid int, node *vertex, err error) {
	e.mu.Lock()
	if err != nil && e.err == nil {
		e.err = fmt.Errorf("node %q: %w", node.Label, err)
	}
	d := &e.deques[wid]
	for _, s := range node.succs {
		e.indeg[s]--
		if e.indeg[s] == 0 {
			d.q = append(d.q, s)
		}
	}
	e.done++
	e.cond.Broadcast()
	e.mu.Unlock()
}
