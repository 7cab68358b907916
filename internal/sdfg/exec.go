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
type Executor struct {
	workers int

	// Observer, when non-nil, is called after every node completes with
	// its label, kind, the worker that ran it, and its start/end offsets
	// from the run's clock zero — the hook internal/dist uses to mirror
	// executor spans into a run trace. It is called from worker
	// goroutines concurrently and must be safe for that.
	Observer func(label string, kind Kind, worker int, start, end time.Duration)
}

// NewExecutor returns an executor with the given pool size (minimum 1).
func NewExecutor(workers int) *Executor {
	if workers < 1 {
		workers = 1
	}
	return &Executor{workers: workers}
}

// Span records when one node ran and on which worker.
type Span struct {
	Node       NodeID
	Worker     int
	Start, End time.Duration // offsets from Trace start
}

// Trace is the measured execution profile of one Run: per-node spans and
// the wall-clock makespan.
type Trace struct {
	Spans []Span // indexed by NodeID
	Wall  time.Duration
	// Steals counts ready nodes executed by a worker other than the one
	// that unblocked them — a direct measure of how much the stealing
	// discipline rebalanced the graph.
	Steals int
}

// execState is the shared scheduling state of one Run. A single mutex
// guards every deque: the simulated tasks (RGF solves, tile kernels,
// collective waits) are micro- to milliseconds, so queue contention is
// negligible and the coarse lock keeps the scheduler trivially
// race-clean; the stealing *policy* is what shapes the schedule.
type execState struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]NodeID // per worker: owner pops back, thieves steal front
	indeg  []int
	done   int
	total  int
	err    error
}

// Run executes every node of g, honoring dependencies. Nodes that return
// an error do not stop the graph: the remaining nodes still run (a rank
// abandoning its collectives would deadlock the other ranks — failure
// agreement is a node's job, not the scheduler's), and the first error is
// returned alongside the trace after the graph drains.
func (e *Executor) Run(g *Graph) (*Trace, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	n := g.Len()
	tr := &Trace{Spans: make([]Span, n)}
	if n == 0 {
		return tr, nil
	}
	st := &execState{
		deques: make([][]NodeID, e.workers),
		indeg:  make([]int, n),
		total:  n,
	}
	st.cond = sync.NewCond(&st.mu)
	for _, node := range g.nodes {
		st.indeg[node.ID] = len(node.deps)
	}
	// Seed the sources round-robin so every worker starts busy.
	w := 0
	for _, node := range g.nodes {
		if st.indeg[node.ID] == 0 {
			st.deques[w%e.workers] = append(st.deques[w%e.workers], node.ID)
			w++
		}
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	var steals int64
	var stealMu sync.Mutex
	for wid := 0; wid < e.workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			for {
				id, stolen, ok := st.next(wid, e.workers)
				if !ok {
					return
				}
				if stolen {
					stealMu.Lock()
					steals++
					stealMu.Unlock()
				}
				node := g.nodes[id]
				start := time.Since(t0)
				var err error
				if node.Run != nil {
					err = node.Run()
				}
				end := time.Since(t0)
				tr.Spans[id] = Span{Node: id, Worker: wid, Start: start, End: end}
				if e.Observer != nil {
					e.Observer(node.Label, node.Kind, wid, start, end)
				}
				st.finish(wid, node, err)
			}
		}(wid)
	}
	wg.Wait()
	tr.Wall = time.Since(t0)
	tr.Steals = int(steals)
	if st.err != nil {
		return tr, fmt.Errorf("sdfg: %w", st.err)
	}
	return tr, nil
}

// next blocks until work is available for worker wid or the graph has
// drained. It returns the node to run and whether it was stolen.
func (st *execState) next(wid, workers int) (NodeID, bool, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		// Own deque: newest first.
		if q := st.deques[wid]; len(q) > 0 {
			id := q[len(q)-1]
			st.deques[wid] = q[:len(q)-1]
			return id, false, true
		}
		// Steal: oldest entry of the first non-empty victim.
		for k := 1; k < workers; k++ {
			v := (wid + k) % workers
			if q := st.deques[v]; len(q) > 0 {
				id := q[0]
				st.deques[v] = q[1:]
				return id, true, true
			}
		}
		if st.done == st.total {
			return 0, false, false
		}
		st.cond.Wait()
	}
}

// finish marks a node complete, records its error, and releases any
// successors whose last dependency it was onto wid's deque.
func (st *execState) finish(wid int, node *vertex, err error) {
	st.mu.Lock()
	if err != nil && st.err == nil {
		st.err = fmt.Errorf("node %q: %w", node.Label, err)
	}
	for _, s := range node.succs {
		st.indeg[s]--
		if st.indeg[s] == 0 {
			st.deques[wid] = append(st.deques[wid], s)
		}
	}
	st.done++
	st.cond.Broadcast()
	st.mu.Unlock()
}
