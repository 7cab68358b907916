// Package sdfg is a data-centric task-graph runtime: the executable form
// of the paper's central claim that expressing the solver as a stateful
// dataflow graph (SDFG) — not as bulk-synchronous phases — is what lets
// independent nodes overlap copies, kernels, and collectives (§4, §7.1.3).
//
// A Graph is a DAG whose nodes are units of work (a per-point solve, a
// collective post or wait, the SSE tile kernel, an observable reduction).
// A node declares the data containers it reads and writes, and the graph
// derives its edges from them — read after write, write after write,
// write after read — so an edge exists because data moves, as in the
// paper's SDFG; explicit dependencies carry only control. Two engines run
// it:
//
//   - Executor: real execution on a work-stealing worker pool. One
//     executor per simulated MPI rank; cross-rank edges are enforced by
//     the nonblocking internal/comm primitives the comm nodes call.
//   - Simulate: a deterministic virtual-time list scheduler over one
//     rank's engines (Spec.Cost durations) — the repo's one cost model.
//     Only plan.Predict, which the benchmark reads, and cmd/paperbench,
//     which lowers its CUDA-stream model (Table 6) onto it, call it.
package sdfg

import "fmt"

// Kind classifies a node for the engine model and for trace reporting.
type Kind uint8

const (
	// Compute nodes occupy one worker of their rank's pool.
	Compute Kind = iota
	// Comm nodes (collective posts/waits) occupy the rank's communication
	// engine in virtual time; the real executor runs them on a worker,
	// where they mostly block in a request Wait.
	Comm
)

func (k Kind) String() string {
	if k == Comm {
		return "comm"
	}
	return "compute"
}

// NodeID names a node within its graph.
type NodeID int32

// Container names a piece of data nodes read and write — a tensor
// plane, a buffer, a request, a group of fields — as a small integer id
// the graph's builder chooses. The graph keeps its access history by id,
// so ids are best dense from zero.
type Container int32

// Spec describes a node being added to a graph. A graph is one rank's:
// its nodes share that rank's workers and communication engine. Run
// takes no arguments; a node that needs its worker reads it from the
// executor's record (Executor.Span).
type Spec struct {
	Label string
	Kind  Kind
	// Cost is the virtual duration used by Simulate. The real executor
	// ignores it.
	Cost float64
	// Reads and Writes are the containers Run reads and writes; a node
	// that updates a container in place lists it in both. Add derives
	// the node's edges from them.
	Reads, Writes []Container
	// Run does the work. Nil is legal (a pure synchronization point).
	Run func() error
}

// vertex is one node of the dataflow graph.
type vertex struct {
	Spec
	ID    NodeID
	deps  []NodeID
	succs []NodeID
}

// access is what the graph knows of one container while it is built:
// the last node that wrote it and the nodes that read it since.
type access struct {
	writer  NodeID // -1 before the first write
	readers []NodeID
}

// Graph is a DAG of tasks, built with Add. Its edges are the data its
// nodes declare plus the explicit dependencies of each Add.
// A Graph is not safe for concurrent mutation, and a single Graph must
// not be executed by two executors at once.
type Graph struct {
	nodes []*vertex
	data  []access // by Container
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Add appends a node and returns its id. The node runs after the
// explicit deps and after every node its declared data orders it behind,
// in insertion order:
//
//   - it follows the last writer of each container it reads (RAW);
//   - as a writer, it follows the container's last writer (WAW) and
//     every node that has read the container since (WAR).
//
// A read of a container no node has written adds no edge, and each
// dependency is recorded once however many rules imply it. Dependencies
// must already be in the graph (ids are handed out in insertion order),
// which makes cycles unrepresentable by construction, and two nodes that
// touch one container with at least one write are never unordered.
func (g *Graph) Add(s Spec, deps ...NodeID) NodeID {
	id := NodeID(len(g.nodes))
	n := &vertex{Spec: s, ID: id}
	dep := func(d NodeID) {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("sdfg: node %q depends on unknown node %d", s.Label, d))
		}
		// Successors are appended in insertion order, so d already
		// precedes this node exactly when its last successor is id.
		if s := g.nodes[d].succs; len(s) == 0 || s[len(s)-1] != id {
			n.deps = append(n.deps, d)
			g.nodes[d].succs = append(s, id)
		}
	}
	for _, d := range deps {
		dep(d)
	}
	// derive records a dependency the data implies: none before a
	// container's first write, and none on the node itself.
	derive := func(d NodeID) {
		if d >= 0 && d != id {
			dep(d)
		}
	}
	for _, c := range s.Reads {
		a := g.access(c)
		derive(a.writer)
		a.readers = append(a.readers, id)
	}
	for _, c := range s.Writes {
		a := g.access(c)
		derive(a.writer)
		for _, r := range a.readers {
			derive(r)
		}
		a.writer, a.readers = id, a.readers[:0]
	}
	g.nodes = append(g.nodes, n)
	return id
}

// access returns container c's history, growing the table to hold it.
func (g *Graph) access(c Container) *access {
	for int(c) >= len(g.data) {
		g.data = append(g.data, access{writer: -1})
	}
	return &g.data[c]
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }
