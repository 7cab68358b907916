// Package sdfg is a data-centric task-graph runtime: the executable form
// of the paper's central claim that expressing the solver as a stateful
// dataflow graph (SDFG) — not as bulk-synchronous phases — is what lets
// independent nodes overlap copies, kernels, and collectives (§4, §7.1.3).
//
// A Graph is a DAG whose nodes are units of work (a per-point boundary
// solve, an RGF solve, a collective post or wait, the SSE tile kernel, an
// observable reduction) and whose edges are the data each node produces
// and consumes. Two engines run it:
//
//   - Executor: real execution on a work-stealing worker pool. One
//     executor per simulated MPI rank; cross-rank edges are enforced by
//     the nonblocking internal/comm primitives the comm nodes call.
//   - Simulate: a deterministic virtual-time list scheduler (Node.Cost
//     durations) — the repo's one cost model: internal/plan scores
//     schedules with it and internal/stream lowers its CUDA-stream model
//     onto it.
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

// Spec describes a node being added to a graph.
type Spec struct {
	Label string
	Kind  Kind
	// Rank is the simulated MPI rank owning the node. Per-rank graphs may
	// leave it zero; global graphs built for Simulate set it so nodes
	// compete only for their own rank's engines.
	Rank int
	// Cost is the virtual duration used by Simulate. The real executor
	// ignores it.
	Cost float64
	// Run does the work. Nil is legal (a pure synchronization point).
	Run func() error
}

// Node is one vertex of the dataflow graph.
type Node struct {
	Spec
	ID    NodeID
	deps  []NodeID
	succs []NodeID
}

// Deps returns the node's dependencies (the nodes producing its inputs).
func (n *Node) Deps() []NodeID { return n.deps }

// Graph is a DAG of tasks. Build it with Add; Validate checks shape.
// A Graph is not safe for concurrent mutation, and a single Graph must
// not be executed by two executors at once.
type Graph struct {
	nodes []*Node
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Add appends a node that consumes the outputs of deps and returns its
// id. Dependencies must already be in the graph (ids are handed out in
// insertion order), which makes cycles unrepresentable by construction.
func (g *Graph) Add(s Spec, deps ...NodeID) NodeID {
	id := NodeID(len(g.nodes))
	n := &Node{Spec: s, ID: id}
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("sdfg: node %q depends on unknown node %d", s.Label, d))
		}
		n.deps = append(n.deps, d)
		g.nodes[d].succs = append(g.nodes[d].succs, id)
	}
	g.nodes = append(g.nodes, n)
	return id
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Validate checks structural invariants: dependency ids in range and
// acyclicity (guaranteed by Add, but re-checked for graphs assembled by
// hand or mutated in tests).
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		for _, d := range n.deps {
			if d < 0 || int(d) >= len(g.nodes) {
				return fmt.Errorf("sdfg: node %d (%s) has out-of-range dep %d", n.ID, n.Label, d)
			}
		}
	}
	// Kahn's algorithm: every node must be reachable at indegree zero.
	indeg := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		for range n.deps {
			indeg[n.ID]++
		}
	}
	queue := make([]NodeID, 0, len(g.nodes))
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, NodeID(id))
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, s := range g.nodes[id].succs {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != len(g.nodes) {
		return fmt.Errorf("sdfg: graph has a cycle (%d of %d nodes reachable)", seen, len(g.nodes))
	}
	return nil
}
