package negf

import (
	"fmt"

	"repro/internal/bc"
	"repro/internal/blocktri"
	"repro/internal/linalg"
)

// PrepareElectronBC computes the two contact boundary conditions of
// electron pair i of the shard into the cache, without solving the point.
// The boundary depends only on the bare Hamiltonian and the energy — not
// on the scattering self-energies — so the task-graph runtime
// (internal/sdfg) schedules it as its own node ahead of the RGF solve,
// which then hits the cache. Only meaningful in bc.CacheBC mode; with
// bc.NoCache the result would be recomputed anyway.
func (s *PointSolver) PrepareElectronBC(sh *Shard, i int) error {
	pr := sh.Pairs[i]
	sc := s.getScratch()
	defer s.putScratch(sc)
	_, _, err := s.leadBCs(sc, 0, "bc/el", pr[0], pr[1], sh.hams[pr[0]], complex(s.Dev.P.Energy(pr[1]), s.Dev.P.Eta))
	return electronErr(pr, err)
}

// PreparePhononBC is PrepareElectronBC for phonon point j of the shard:
// the boundary blocks are (ω+iη)²·I − Φ with the bare dynamical matrix,
// again independent of the scattering self-energies.
func (s *PointSolver) PreparePhononBC(sh *Shard, j int) error {
	pt := sh.Points[j]
	sc := s.getScratch()
	defer s.putScratch(sc)
	z := complex(s.Dev.P.Omega(pt[1]), s.Dev.P.Eta)
	_, _, err := s.leadBCs(sc, 2, "bc/ph", pt[0], pt[1], sh.dyns[pt[0]], z*z)
	return phononErr(pt, err)
}

// leadBCs is the two-lead boundary lookup of grid point (i, j): the left
// and right open-boundary results of the bare operator op at complex
// energy z — cache sides side and side+1 (0, 1 electron; 2, 3 phonon) —
// from the run's cache, else from the shared store under it, else
// decimated on sc's workspace (idle outside solveRGF) and kept by both. It
// is the only place a boundary is looked up, by the point solves and the
// Prepare*BC nodes alike, so the "bc" span it records under the given
// name is a decimation exactly where one ran and a hit everywhere else.
func (s *PointSolver) leadBCs(sc *solveScratch, side int, span string, i, j int, op *blocktri.Matrix, z complex128) (left, right *bc.Result, err error) {
	nb := s.Dev.P.Bnum
	t0 := s.Trace.Begin()
	left, err = s.leadBC(sc, side, i, j, op.Diag[0], op.Lower[0], z)
	if err != nil {
		return nil, nil, fmt.Errorf("left boundary: %w", err)
	}
	right, err = s.leadBC(sc, side+1, i, j, op.Diag[nb-1], op.Upper[nb-2], z)
	if err != nil {
		return nil, nil, fmt.Errorf("right boundary: %w", err)
	}
	s.Trace.End(s.TraceRank, sc.track, "bc", span, i, j, t0)
	return left, right, nil
}

// leadBC looks up one contact of leadBCs. The store key is built only on
// a run-cache miss with a store attached, and the lead's digest only on
// the first such miss of each (side, momentum): a run hashes each of its
// leads once, inside iteration 0, and nothing before Start.
func (s *PointSolver) leadBC(sc *solveScratch, side, i, j int, onsite, coupling *linalg.Matrix, z complex128) (*bc.Result, error) {
	return s.BC.GetLead(side, i, j,
		func() bc.LeadKey { return bc.NewLeadKey(s.leadDigest(side, i, onsite, coupling), z, 0, 0) },
		func() (*bc.Result, error) { return sc.decimate(onsite, coupling, z) })
}

// leadDigest hashes the lead of (side, momentum i) on its first call and
// returns the memo afterwards. The hash runs under the lock — once per
// lead and run, ~0.3 ms at 64×64 — so concurrent first lookups of one
// lead do not both pay it.
func (s *PointSolver) leadDigest(side, i int, onsite, coupling *linalg.Matrix) bc.LeadDigest {
	s.digestMu.Lock()
	defer s.digestMu.Unlock()
	id := [2]int{side, i}
	d, ok := s.leadDigests[id]
	if !ok {
		d = s.BC.Store.DigestLead(onsite, coupling)
		if s.leadDigests == nil {
			s.leadDigests = map[[2]int]bc.LeadDigest{}
		}
		s.leadDigests[id] = d
	}
	return d
}

// decimate runs Sancho–Rubio for the lead whose onsite block is
// z·I − onsite and whose coupling is −coupling — the contact blocks of the
// A matrix before any self-energy enters — under the default stopping
// rule, with every temporary on the scratch workspace.
func (sc *solveScratch) decimate(onsite, coupling *linalg.Matrix, z complex128) (*bc.Result, error) {
	n := onsite.Rows
	d00 := linalg.Scale(sc.ws.Get(n, n), -1, onsite)
	for r := 0; r < n; r++ {
		d00.Set(r, r, d00.At(r, r)+z)
	}
	tau := linalg.Scale(sc.ws.Get(n, n), -1, coupling)
	res, err := bc.SurfaceGFInto(sc.ws, d00, tau, 0, 0)
	sc.ws.Put(d00)
	sc.ws.Put(tau)
	return res, err
}
