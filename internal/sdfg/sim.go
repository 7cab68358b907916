package sdfg

// Simulate computes the virtual-time makespan of g. Every rank owns
// `workers` compute engines plus one communication engine; each node
// occupies one engine of its Kind on its Rank for Cost units of virtual
// time, starting no earlier than its dependencies finish. Scheduling is
// greedy list scheduling — among all ready nodes, the one that can start
// earliest runs next (ties broken by node id) — so the result is
// deterministic and comparable across schedules of the same task set.
// One rank with one worker is internal/stream's two-engine GPU (compute
// engine + copy engine), which is how stream.Makespan lowers onto it.
func Simulate(g *Graph, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	n := g.Len()
	if n == 0 {
		return 0
	}
	ranks := 1
	for _, node := range g.nodes {
		if node.Rank+1 > ranks {
			ranks = node.Rank + 1
		}
	}
	// Engine pools: per rank, `workers` compute engines and 1 comm engine.
	compute := make([][]float64, ranks)
	for r := range compute {
		compute[r] = make([]float64, workers)
	}
	comm := make([]float64, ranks)

	finish := make([]float64, n)
	indeg := make([]int, n)
	ready := make([]float64, n) // max finish over deps, valid when indeg==0
	scheduled := make([]bool, n)
	for _, node := range g.nodes {
		indeg[node.ID] = len(node.deps)
	}
	for left := n; left > 0; left-- {
		// Pick the ready node with the earliest feasible start.
		best, bestEngine := -1, -1
		var bestStart float64
		for id := 0; id < n; id++ {
			if scheduled[id] || indeg[id] != 0 {
				continue
			}
			node := g.nodes[id]
			engineFree, engine := 0.0, -1
			if node.Kind == Comm {
				engineFree = comm[node.Rank]
			} else {
				engineFree, engine = minEngine(compute[node.Rank])
			}
			start := ready[id]
			if engineFree > start {
				start = engineFree
			}
			if best < 0 || start < bestStart {
				best, bestStart, bestEngine = id, start, engine
			}
		}
		node := g.nodes[best]
		end := bestStart + node.Cost
		if node.Kind == Comm {
			comm[node.Rank] = end
		} else {
			compute[node.Rank][bestEngine] = end
		}
		finish[best] = end
		scheduled[best] = true
		for _, s := range node.succs {
			indeg[s]--
			if end > ready[s] {
				ready[s] = end
			}
		}
	}
	var makespan float64
	for _, f := range finish {
		if f > makespan {
			makespan = f
		}
	}
	return makespan
}

// minEngine returns the earliest-free engine of a pool and its index.
func minEngine(pool []float64) (float64, int) {
	bi, bv := 0, pool[0]
	for i, v := range pool[1:] {
		if v < bv {
			bi, bv = i+1, v
		}
	}
	return bv, bi
}
