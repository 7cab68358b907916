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
// which then hits the cache. The arithmetic is identical to the in-solve
// path, so the cached result is bitwise the same. Only meaningful in
// bc.CacheBC mode; with bc.NoCache the result would be recomputed anyway.
func (s *PointSolver) PrepareElectronBC(sh *Shard, i int) error {
	pr := sh.Pairs[i]
	h, z := sh.hams[pr[0]], complex(s.Dev.P.Energy(pr[1]), s.Dev.P.Eta)
	return electronErr(pr, s.prepareBC(0, pr, h, z))
}

// PreparePhononBC is PrepareElectronBC for phonon point j of the shard:
// the boundary blocks are (ω+iη)²·I − Φ with the bare dynamical matrix,
// again independent of the scattering self-energies.
func (s *PointSolver) PreparePhononBC(sh *Shard, j int) error {
	pt := sh.Points[j]
	z := complex(s.Dev.P.Omega(pt[1]), s.Dev.P.Eta)
	return phononErr(pt, s.prepareBC(2, pt, sh.dyns[pt[0]], z*z))
}

// prepareBC fills the cache entries side (left) and side+1 (right) of
// one grid point from the lead blocks of op.
func (s *PointSolver) prepareBC(side int, pt [2]int, op *blocktri.Matrix, z complex128) error {
	nb := s.Dev.P.Bnum
	sc := s.getScratch()
	defer s.putScratch(sc)
	if _, err := s.BC.Get(side, pt[0], pt[1], func() (*bc.Result, error) {
		return sc.leadBC(op.Diag[0], op.Lower[0], z)
	}); err != nil {
		return fmt.Errorf("left boundary: %w", err)
	}
	if _, err := s.BC.Get(side+1, pt[0], pt[1], func() (*bc.Result, error) {
		return sc.leadBC(op.Diag[nb-1], op.Upper[nb-2], z)
	}); err != nil {
		return fmt.Errorf("right boundary: %w", err)
	}
	return nil
}

// leadBC decimates the lead whose onsite block is z·I − onsite and whose
// coupling is −coupling — the contact blocks of the A matrix before any
// self-energy enters, the same expressions the point solves build in
// place — with every temporary on the scratch workspace.
func (sc *solveScratch) leadBC(onsite, coupling *linalg.Matrix, z complex128) (*bc.Result, error) {
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
