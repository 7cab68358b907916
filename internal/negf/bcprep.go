package negf

import (
	"fmt"

	"repro/internal/bc"
	"repro/internal/blocktri"
	"repro/internal/linalg"
)

// PrepareElectronBC computes the two contact boundary conditions of
// electron point (ik, ie) into the cache, without solving the point. The
// boundary depends only on the bare Hamiltonian and the energy — not on
// the scattering self-energies — so the task-graph runtime (internal/sdfg)
// schedules it as its own node ahead of the RGF solve, which then hits
// the cache. The arithmetic is identical to the in-solve path, so the
// cached result is bitwise the same. Only meaningful in bc.CacheBC mode;
// with bc.NoCache the result would be recomputed anyway.
func (s *PointSolver) PrepareElectronBC(h *blocktri.Matrix, ik, ie int) error {
	p := s.Dev.P
	z := complex(p.Energy(ie), p.Eta)
	nb := p.Bnum
	sc := s.getScratch()
	defer s.putScratch(sc)
	if _, err := s.BC.Get(0, ik, ie, func() (*bc.Result, error) {
		return sc.leadBC(h.Diag[0], h.Lower[0], z)
	}); err != nil {
		return fmt.Errorf("left boundary: %w", err)
	}
	if _, err := s.BC.Get(1, ik, ie, func() (*bc.Result, error) {
		return sc.leadBC(h.Diag[nb-1], h.Upper[nb-2], z)
	}); err != nil {
		return fmt.Errorf("right boundary: %w", err)
	}
	return nil
}

// PreparePhononBC is PrepareElectronBC for phonon point (iq, m): the
// boundary blocks are (ω+iη)²·I − Φ with the bare dynamical matrix, again
// independent of the scattering self-energies.
func (s *PointSolver) PreparePhononBC(phi *blocktri.Matrix, iq, m int) error {
	p := s.Dev.P
	z := complex(p.Omega(m), p.Eta)
	z2 := z * z
	nb := p.Bnum
	sc := s.getScratch()
	defer s.putScratch(sc)
	if _, err := s.BC.Get(2, iq, m, func() (*bc.Result, error) {
		return sc.leadBC(phi.Diag[0], phi.Lower[0], z2)
	}); err != nil {
		return fmt.Errorf("left phonon boundary: %w", err)
	}
	if _, err := s.BC.Get(3, iq, m, func() (*bc.Result, error) {
		return sc.leadBC(phi.Diag[nb-1], phi.Upper[nb-2], z2)
	}); err != nil {
		return fmt.Errorf("right phonon boundary: %w", err)
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
