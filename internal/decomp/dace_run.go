package decomp

import (
	"repro/internal/comm"
	"repro/internal/sse"
)

// AtomSets precomputes the atom set (owned range + Nb halo) of every atom
// tile; all ranks share the result.
func (l *DaCeLayout) AtomSets() [][]int {
	sets := make([][]int, l.Ta)
	for t := 0; t < l.Ta; t++ {
		sets[t] = l.atomSet(t)
	}
	return sets
}

// RunDaCe executes the SSE phase under the communication-avoiding Ta×TE
// atom×energy decomposition on the simulated MPI runtime — the Fig. 5
// (right) scheme. The Green's functions start in the same distribution the
// GF phase produces (pairs and phonon points block-distributed over the
// ranks); each rank then runs the four Alltoallv collectives and the local
// tile computation:
//
//	#1  G≷  pair owners   → tiles (atom set + Nb halo, energy range + 2Nω halo)
//	#2  D≷  point owners  → tiles (atom set + halo, all (qz, ω))
//	#3  Σ≷  tiles         → pair owners
//	#4  Π≷  tile partials → phonon point owners (summed on arrival)
//
// This is the bulk-synchronous driver of a DaCePlan: each stage packs,
// exchanges, and unpacks back-to-back. The overlapped driver
// (internal/dist's task-graph schedule) runs the same stages through the
// nonblocking collectives instead. The union over ranks reproduces the
// sequential kernel exactly. The returned Output is the full result
// gathered on rank 0 (for verification), and Stats are the communication
// counters measured before the verification gather.
func RunDaCe(w *comm.World, in *sse.Input, ta, te int) (*sse.Output, comm.Stats, error) {
	p := in.Dev.P
	l := NewDaCeLayout(in.Dev, ta, te)
	ranks := l.procs()
	src := NewOMENLayout(p, ranks) // GF-phase ownership of pairs and points
	var stats comm.Stats
	final := newGathered(in)

	// Precompute per-tile atom sets and halos once; all ranks share them.
	atomSets := l.AtomSets()

	err := w.Run(func(c *comm.Comm) error {
		r := c.Rank()
		local := localInput(in, func(ik, ie int) bool { return src.pairOwner(ik, ie) == r },
			func(iq, m int) bool { return src.phononOwner(iq, m) == r })

		pl := NewDaCePlan(r, l, src, atomSets, local)
		pl.UnpackG(c.Alltoallv(pl.PackG()))
		pl.UnpackD(c.Alltoallv(pl.PackD()))
		pl.ComputeTile()
		pl.UnpackSigma(c.Alltoallv(pl.PackSigma()))
		pl.UnpackPi(c.Alltoallv(pl.PackPi()))
		out := pl.Output()

		// Snapshot traffic before the verification gather.
		if r == 0 {
			c.Barrier()
			stats = w.Stats()
			c.Barrier()
		} else {
			c.Barrier()
			c.Barrier()
		}

		gatherOMEN(c, src, out, final)
		return nil
	})
	if err != nil {
		return nil, comm.Stats{}, err
	}
	return final, stats, nil
}
