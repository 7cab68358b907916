package main

// The data-ingestion model of §7.1.1: loading the CP2K-produced material
// files (GiBs across many files) at scale. Two strategies are compared:
//
//   - Naive: every rank opens and reads its inputs from the parallel
//     filesystem. The PFS delivers a fixed aggregate bandwidth, so the
//     time grows linearly with the node count — over 30 minutes at
//     near-full Piz Daint scale.
//
//   - Staged: a single reader loads the material once, then delivers it
//     with a chunked, pipelined broadcast over the interconnect. The time
//     is one read plus one pipelined broadcast: under a minute, 31.1 s on
//     4,560 Summit nodes.

// ingestionRow is one point of the §7.1.1 comparison.
type ingestionRow struct {
	nodes     int
	naiveSec  float64
	stagedSec float64
	speedup   float64
}

// compareIngestion evaluates both strategies for a 10 GiB material load
// on a Piz Daint/Summit-era filesystem and interconnect.
func compareIngestion(nodes []int) []ingestionRow {
	const (
		// aggregateBW is the filesystem's total delivered bandwidth under
		// contention (bytes/s). Calibrated from the paper's measurement of
		// 1,112 s for 2,589 nodes reading ~10 GiB each: ≈ 25 GB/s.
		aggregateBW = 25e9
		nodeReadBW  = 0.4e9 // what a single reader obtains (bytes/s)
		injectionBW = 23e9  // per-node network bandwidth for the broadcast
	)
	bytes := float64(10 * (1 << 30))
	// Staged: one read from the PFS followed by a pipelined binomial
	// broadcast (the log₂ P term vanishes into the pipeline once the chunk
	// count exceeds the tree depth; factor 2 for store+forward), so it
	// does not depend on the node count.
	staged := bytes/nodeReadBW + bytes/injectionBW*2
	out := make([]ingestionRow, 0, len(nodes))
	for _, n := range nodes {
		// Naive: contention serializes the aggregate volume.
		naive := bytes * float64(n) / aggregateBW
		out = append(out, ingestionRow{nodes: n, naiveSec: naive, stagedSec: staged, speedup: naive / staged})
	}
	return out
}
