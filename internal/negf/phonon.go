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

// SolvePhononPoint builds and solves one (qz, ω) RGF problem:
// ((ω+iη)²·I − Φ − Πᴿ)·Dᴿ = I, D≷ = Dᴿ·Π≷·Dᴬ. It fills the D≷ blocks of
// that point and returns its observable contributions.
func (s *PointSolver) SolvePhononPoint(phi *blocktri.Matrix, iq, m int) (*PhononPointResult, error) {
	res := newPhononResult(s.Dev.P)
	if err := s.solvePhononInto(phi, iq, m, res); err != nil {
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

// solvePhononInto is SolvePhononPoint writing its observables into res,
// whose storage it overwrites in full.
func (s *PointSolver) solvePhononInto(phi *blocktri.Matrix, iq, m int, res *PhononPointResult) error {
	p := s.Dev.P
	omega := p.Omega(m)
	z := complex(omega, p.Eta)
	z2 := z * z
	nb := p.Bnum
	bs := p.PhBlockSize()

	sc := s.getScratch()
	defer s.putScratch(sc)

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

	// Scatter the retarded scattering self-energy Πᴿ = (Π> − Π<)/2 into A:
	// per-atom diagonal blocks plus neighbour blocks (same-slab neighbours
	// land inside the slab diagonal; cross-slab neighbours in Upper/Lower).
	s.scatterPiRetarded(a, iq, m)

	// Equilibrium contacts: Π<_B = −i·n_B·Γ, Π>_B = −i·(n_B+1)·Γ. The
	// scratch injection blocks arrive zeroed.
	n := device.BoseEinstein(omega, p.TC)
	linalg.AXPY(sigL[0], complex(0, -n), left.Gamma)
	linalg.AXPY(sigG[0], complex(0, -(n+1)), left.Gamma)
	linalg.AXPY(sigL[nb-1], complex(0, -n), right.Gamma)
	linalg.AXPY(sigG[nb-1], complex(0, -(n+1)), right.Gamma)
	s.scatterPiInjections(sigL, sigG, iq, m)

	tRGF := s.Trace.Begin()
	sol, err := sc.solveRGF(a, sigL, sigG)
	if err != nil {
		return err
	}
	s.Trace.End(s.TraceRank, sc.track, "rgf", "rgf/ph", iq, m, tRGF)

	// Harvest D≷ into the 6-D tensors: diagonal slot plus Nb neighbours.
	rows := p.AtomsPerSlab()
	const n3 = device.N3D
	for at := 0; at < p.Na; at++ {
		sa := s.Dev.SlabOf[at]
		ra := (at - sa*rows) * n3
		copyWindow(s.DL.Block(iq, m-1, at, 0), sol.GL[sa], ra, ra, n3)
		copyWindow(s.DG.Block(iq, m-1, at, 0), sol.GG[sa], ra, ra, n3)
		for slot, b := range s.Dev.Neigh[at] {
			sb := s.Dev.SlabOf[b]
			rb := (b - sb*rows) * n3
			var srcL, srcG *linalg.Matrix
			var r0, c0 int
			switch {
			case sb == sa:
				srcL, srcG, r0, c0 = sol.GL[sa], sol.GG[sa], ra, rb
			case sb == sa+1:
				srcL, srcG, r0, c0 = sol.GLUpper[sa], sol.GGUpper[sa], ra, rb
			default: // sb == sa-1
				srcL, srcG, r0, c0 = sol.GLLower[sb], sol.GGLower[sb], ra, rb
			}
			copyWindow(s.DL.Block(iq, m-1, at, 1+slot), srcL, r0, c0, n3)
			copyWindow(s.DG.Block(iq, m-1, at, 1+slot), srcG, r0, c0, n3)
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
		sa := s.Dev.SlabOf[at]
		ra := (at - sa*rows) * n3
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

// scatterPiRetarded adds Πᴿ_S = (Π> − Π<)/2 blocks into the assembled A.
func (s *PointSolver) scatterPiRetarded(a *blocktri.Matrix, iq, m int) {
	p := s.Dev.P
	rows := p.AtomsPerSlab()
	const n3 = device.N3D
	addBlock := func(dst *linalg.Matrix, r0, c0 int, pl, pg []complex128) {
		for r := 0; r < n3; r++ {
			for c := 0; c < n3; c++ {
				dst.Set(r0+r, c0+c, dst.At(r0+r, c0+c)-(pg[r*n3+c]-pl[r*n3+c])/2)
			}
		}
	}
	for at := 0; at < p.Na; at++ {
		sa := s.Dev.SlabOf[at]
		ra := (at - sa*rows) * n3
		addBlock(a.Diag[sa], ra, ra, s.PiL.Block(iq, m-1, at, 0), s.PiG.Block(iq, m-1, at, 0))
		for slot, b := range s.Dev.Neigh[at] {
			sb := s.Dev.SlabOf[b]
			rb := (b - sb*rows) * n3
			pl := s.PiL.Block(iq, m-1, at, 1+slot)
			pg := s.PiG.Block(iq, m-1, at, 1+slot)
			switch {
			case sb == sa:
				addBlock(a.Diag[sa], ra, rb, pl, pg)
			case sb == sa+1:
				addBlock(a.Upper[sa], ra, rb, pl, pg)
			default: // sb == sa-1
				addBlock(a.Lower[sb], ra, rb, pl, pg)
			}
		}
	}
}

// scatterPiInjections adds the Π≷_S blocks into the block-diagonal RGF
// injections. Same-slab neighbour blocks are included; the few cross-slab
// injection blocks are dropped: rgf.Problem carries Σ≷ as one block per
// slab, so the lesser recursion has no slot for an off-diagonal injection.
func (s *PointSolver) scatterPiInjections(sigL, sigG []*linalg.Matrix, iq, m int) {
	p := s.Dev.P
	rows := p.AtomsPerSlab()
	const n3 = device.N3D
	add := func(dst *linalg.Matrix, r0, c0 int, src []complex128) {
		for r := 0; r < n3; r++ {
			for c := 0; c < n3; c++ {
				dst.Set(r0+r, c0+c, dst.At(r0+r, c0+c)+src[r*n3+c])
			}
		}
	}
	for at := 0; at < p.Na; at++ {
		sa := s.Dev.SlabOf[at]
		ra := (at - sa*rows) * n3
		add(sigL[sa], ra, ra, s.PiL.Block(iq, m-1, at, 0))
		add(sigG[sa], ra, ra, s.PiG.Block(iq, m-1, at, 0))
		for slot, b := range s.Dev.Neigh[at] {
			if s.Dev.SlabOf[b] != sa {
				continue
			}
			rb := (b - sa*rows) * n3
			add(sigL[sa], ra, rb, s.PiL.Block(iq, m-1, at, 1+slot))
			add(sigG[sa], ra, rb, s.PiG.Block(iq, m-1, at, 1+slot))
		}
	}
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
