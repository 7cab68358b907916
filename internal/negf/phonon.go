package negf

import (
	"repro/internal/blocktri"
	"repro/internal/device"
	"repro/internal/linalg"
)

// PhononPointResult carries observables from one (qz, ω) solve.
type PhononPointResult struct {
	M               int // frequency index of this point, ∈ [1, Nω]
	EnergyContactL  float64
	InterfaceEnergy []float64
	// Per-atom spectral weight and occupation at this frequency.
	DOS []float64
	Occ []float64
}

// SolvePhononPoint builds and solves one (qz, ω) RGF problem of a solver
// that owns the whole grid: ((ω+iη)²·I − Φ − Πᴿ)·Dᴿ = I, D≷ = Dᴿ·Π≷·Dᴬ.
// It fills the D≷ blocks of that point and returns its observable
// contributions. It runs on worker 0's scratch.
func (s *PointSolver) SolvePhononPoint(phi *blocktri.Matrix, iq, m int) (*PhononPointResult, error) {
	res := newPhononResult(s.Dev.P)
	if err := s.solvePhononInto(0, phi, iq*s.Dev.P.Nomega+m-1, iq, m, res); err != nil {
		return nil, err
	}
	return res, nil
}

// newPhononResult allocates the storage of one phonon point result.
func newPhononResult(p device.Params) *PhononPointResult {
	return &PhononPointResult{
		InterfaceEnergy: make([]float64, p.Bnum-1),
		DOS:             make([]float64, p.Na),
		Occ:             make([]float64, p.Na),
	}
}

// solvePhononInto is SolvePhononPoint on worker w's scratch against Π≷
// plane k, writing its observables into res, whose storage it overwrites
// in full.
func (s *PointSolver) solvePhononInto(w int, phi *blocktri.Matrix, k, iq, m int, res *PhononPointResult) error {
	p := s.Dev.P
	omega := p.Omega(m)
	z := complex(omega, p.Eta)
	z2 := z * z
	nb := p.Bnum
	bs := p.PhBlockSize()

	sc := s.worker(w)

	a, sigL, sigG := sc.phonon(phi.Sizes)
	for i := 0; i < nb; i++ {
		linalg.Scale(a.Diag[i], -1, phi.Diag[i])
		for r := 0; r < bs; r++ {
			a.Diag[i].Set(r, r, a.Diag[i].At(r, r)+z2)
		}
	}
	for i := 0; i+1 < nb; i++ {
		linalg.Scale(a.Upper[i], -1, phi.Upper[i])
		linalg.Scale(a.Lower[i], -1, phi.Lower[i])
	}

	// Open boundaries at the contact temperature, computed from the bare
	// lead blocks (the semi-infinite contacts stay in equilibrium, so the
	// boundary is independent of the scattering self-energies and can be
	// cached across iterations, §7.1.2).
	left, right, err := s.leadBCs(sc, 2, "bc/ph", iq, m, phi, z2)
	if err != nil {
		return err
	}
	linalg.AXPY(a.Diag[0], -1, left.SigmaR)
	linalg.AXPY(a.Diag[nb-1], -1, right.SigmaR)

	// Equilibrium contacts: Π<_B = −i·n_B·Γ, Π>_B = −i·(n_B+1)·Γ. The
	// scratch injection blocks arrive zeroed.
	n := device.BoseEinstein(omega, p.TC)
	linalg.AXPY(sigL[0], complex(0, -n), left.Gamma)
	linalg.AXPY(sigG[0], complex(0, -(n+1)), left.Gamma)
	linalg.AXPY(sigL[nb-1], complex(0, -n), right.Gamma)
	linalg.AXPY(sigG[nb-1], complex(0, -(n+1)), right.Gamma)
	s.scatterPi(a, sigL, sigG, k)

	tRGF := s.Trace.Begin()
	sol, err := sc.solveRGF(a, sigL, sigG)
	if err != nil {
		return err
	}
	s.Trace.End(s.TraceRank, sc.track, "rgf", "rgf/ph", iq, m, tRGF)

	// Harvest D≷ into the 6-D tensors: diagonal slot plus Nb neighbours.
	const n3 = device.N3D
	for at, nbrs := range s.Dev.Neigh {
		for slot := 0; slot <= len(nbrs); slot++ {
			b := s.slotAtom(at, slot)
			gl, r0, c0 := s.Dev.PairBlock(sol.GL, sol.GLUpper, sol.GLLower, at, b, n3)
			gg, _, _ := s.Dev.PairBlock(sol.GG, sol.GGUpper, sol.GGLower, at, b, n3)
			copyWindow(s.DL.Block(iq, m-1, at, slot), gl, r0, c0, n3)
			copyWindow(s.DG.Block(iq, m-1, at, slot), gg, r0, c0, n3)
		}
	}

	res.M = m
	// Contact heat current (Meir-Wingreen form for phonons).
	res.EnergyContactL = phononContactCurrent(left.Gamma, n, sol.GL[0], sol.GG[0])
	// Interface heat flux, rightward-positive. The phonon energy-current
	// operator on the ω²-axis Green's function carries the opposite sign
	// to the electron particle-current form (the flux involves the
	// velocity u̇ ~ iω·u rather than the density):
	// JQ_{i→i+1} = −2·Re Tr[Φ_{i,i+1}·D<_{i+1,i}]. Validated by the
	// outward-from-hot-spot flow in the self-heating tests.
	for i := 0; i+1 < nb; i++ {
		res.InterfaceEnergy[i] = -2 * realTraceMul(phi.Upper[i], sol.GLLower[i])
	}
	// Local spectral weight and occupation for the temperature map:
	// dos_a = −2·Im tr Dᴿ_aa, occ_a = −Im tr D<_aa = n_eff·dos_a.
	for at := 0; at < p.Na; at++ {
		sa, ra := s.Dev.Site(at, n3)
		var trR, trL complex128
		for d := 0; d < n3; d++ {
			trR += sol.GR[sa].At(ra+d, ra+d)
			trL += sol.GL[sa].At(ra+d, ra+d)
		}
		res.DOS[at] = -2 * imag(trR)
		res.Occ[at] = -imag(trL)
	}
	return nil
}

// scatterPi adds the scattering self-energies of every pair block into
// the assembly: Πᴿ_S = (Π> − Π<)/2 into A (same-slab neighbours land
// inside the slab diagonal, cross-slab neighbours in Upper/Lower) and
// Π≷_S into the block-diagonal injections. The few cross-slab injection
// blocks are dropped: rgf.Problem carries Σ≷ as one block per slab, so
// the lesser recursion has no slot for an off-diagonal injection. k is
// the Π≷ plane of the point.
func (s *PointSolver) scatterPi(a *blocktri.Matrix, sigL, sigG []*linalg.Matrix, k int) {
	const n3 = device.N3D
	for at, nbrs := range s.Dev.Neigh {
		sa := s.Dev.SlabOf[at]
		for slot := 0; slot <= len(nbrs); slot++ {
			b := s.slotAtom(at, slot)
			pl, pg := s.pi.block(k, at, slot)
			dst, r0, c0 := s.Dev.PairBlock(a.Diag, a.Upper, a.Lower, at, b, n3)
			inject := s.Dev.SlabOf[b] == sa
			for r := 0; r < n3; r++ {
				for c := 0; c < n3; c++ {
					x := r*n3 + c
					dst.Set(r0+r, c0+c, dst.At(r0+r, c0+c)-(pg[x]-pl[x])/2)
					if inject {
						sigL[sa].Set(r0+r, c0+c, sigL[sa].At(r0+r, c0+c)+pl[x])
						sigG[sa].Set(r0+r, c0+c, sigG[sa].At(r0+r, c0+c)+pg[x])
					}
				}
			}
		}
	}
}

// slotAtom is the atom in slot slot of at's phonon blocks: at itself in
// slot 0, then at's neighbours in list order.
func (s *PointSolver) slotAtom(at, slot int) int {
	if slot == 0 {
		return at
	}
	return s.Dev.Neigh[at][slot-1]
}

// phononContactCurrent computes Tr[Π<_c·D> − Π>_c·D<] with
// Π<_c = −i·n·Γ, Π>_c = −i·(n+1)·Γ:
// = Re{ −i·Tr[Γ·(n·D> − (n+1)·D<)] }.
func phononContactCurrent(gamma *linalg.Matrix, n float64, dl, dg *linalg.Matrix) float64 {
	sz := gamma.Rows
	var tr complex128
	for r := 0; r < sz; r++ {
		for c := 0; c < sz; c++ {
			tr += gamma.At(r, c) * (complex(n, 0)*dg.At(c, r) - complex(n+1, 0)*dl.At(c, r))
		}
	}
	return real(complex(0, -1) * tr)
}

// copyWindow copies an n×n window at (r0, c0) of src into dst (row-major).
func copyWindow(dst []complex128, src *linalg.Matrix, r0, c0, n int) {
	for r := 0; r < n; r++ {
		copy(dst[r*n:(r+1)*n], src.Data[(r0+r)*src.Cols+c0:(r0+r)*src.Cols+c0+n])
	}
}
