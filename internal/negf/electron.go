package negf

import (
	"repro/internal/blocktri"
	"repro/internal/device"
	"repro/internal/linalg"
)

// ElectronPointResult carries the observables extracted from one (kz, E)
// solve — the per-point contributions Observables.AddElectron weighs and
// accumulates.
type ElectronPointResult struct {
	CurrentL, CurrentR float64   // Meir-Wingreen contact currents
	EnergyL            float64   // contact energy current (left)
	InterfaceCurrent   []float64 // per slab interface
	InterfaceEnergy    []float64
	DissipatedPerSlab  []float64
	IE                 int       // energy index of this point
	LDOS               []float64 // −(1/π)·Im tr Gᴿ per slab
}

// newElectronResult allocates the storage of one electron point result.
func newElectronResult(p device.Params) *ElectronPointResult {
	nb := p.Bnum
	return &ElectronPointResult{
		InterfaceCurrent:  make([]float64, nb-1),
		InterfaceEnergy:   make([]float64, nb-1),
		DissipatedPerSlab: make([]float64, nb),
		LDOS:              make([]float64, nb),
	}
}

// SolveElectronPoint builds and solves one (kz, E) RGF problem against the
// current scattering self-energies, filling the G≷ blocks of that point and
// returning its observable contributions.
func (s *PointSolver) SolveElectronPoint(h *blocktri.Matrix, ik, ie int) (*ElectronPointResult, error) {
	res := newElectronResult(s.Dev.P)
	if err := s.solveElectronInto(h, ik, ie, res); err != nil {
		return nil, err
	}
	return res, nil
}

// solveElectronInto is SolveElectronPoint writing its observables into
// res, whose storage it overwrites in full.
func (s *PointSolver) solveElectronInto(h *blocktri.Matrix, ik, ie int, res *ElectronPointResult) error {
	p := s.Dev.P
	e := p.Energy(ie)
	z := complex(e, p.Eta)
	nb := p.Bnum
	bs := p.ElBlockSize()

	sc := s.getScratch()
	defer s.putScratch(sc)

	// A = (E+iη)·S − H − Σᴿ_B − Σᴿ_S. S = I in the orthonormal basis but
	// the same assembly holds for general S. The scratch assembly is
	// overwritten in full, so reuse changes no values.
	a, sigL, sigG := sc.electron(h.Sizes)
	for i := 0; i < nb; i++ {
		linalg.Scale(a.Diag[i], -1, h.Diag[i])
		for r := 0; r < bs; r++ {
			a.Diag[i].Set(r, r, a.Diag[i].At(r, r)+z)
		}
	}
	for i := 0; i+1 < nb; i++ {
		linalg.Scale(a.Upper[i], -1, h.Upper[i])
		linalg.Scale(a.Lower[i], -1, h.Lower[i])
	}

	// Open boundaries: semi-infinite periodic extensions of the edge slabs.
	left, right, err := s.leadBCs(sc, 0, "bc/el", ik, ie, h, z)
	if err != nil {
		return err
	}
	linalg.AXPY(a.Diag[0], -1, left.SigmaR)
	linalg.AXPY(a.Diag[nb-1], -1, right.SigmaR)

	// Lesser/greater injections: boundary (Fermi-filled broadening) plus
	// the scattering self-energies from the previous SSE phase. The
	// scratch injection blocks arrive zeroed.
	fL := device.FermiDirac(e, p.MuL(), p.TC)
	fR := device.FermiDirac(e, p.MuR(), p.TC)
	linalg.AXPY(sigL[0], complex(0, fL), left.Gamma)
	linalg.AXPY(sigG[0], complex(0, -(1-fL)), left.Gamma)
	linalg.AXPY(sigL[nb-1], complex(0, fR), right.Gamma)
	linalg.AXPY(sigG[nb-1], complex(0, -(1-fR)), right.Gamma)

	// Scatter the per-atom scattering self-energies into slab blocks:
	// Σᴿ_S = (Σ> − Σ<)/2 into A, Σ≷_S into the injections.
	norb := p.Norb
	for a2 := 0; a2 < p.Na; a2++ {
		sl, off := s.Dev.Site(a2, norb)
		sL := s.SigL.Block(ik, ie, a2)
		sG := s.SigG.Block(ik, ie, a2)
		for r := 0; r < norb; r++ {
			for c := 0; c < norb; c++ {
				v := sL[r*norb+c]
				g := sG[r*norb+c]
				sigL[sl].Set(off+r, off+c, sigL[sl].At(off+r, off+c)+v)
				sigG[sl].Set(off+r, off+c, sigG[sl].At(off+r, off+c)+g)
				// Σᴿ = (Σ> − Σ<)/2 (anti-Hermitian part; the principal-
				// value real part is neglected, standard in SCBA solvers).
				a.Diag[sl].Set(off+r, off+c, a.Diag[sl].At(off+r, off+c)-(g-v)/2)
			}
		}
	}

	tRGF := s.Trace.Begin()
	sol, err := sc.solveRGF(a, sigL, sigG)
	if err != nil {
		return err
	}
	s.Trace.End(s.TraceRank, sc.track, "rgf", "rgf/el", ik, ie, tRGF)

	// Harvest the per-atom diagonal blocks into the G≷ tensors.
	for a2 := 0; a2 < p.Na; a2++ {
		sl, off := s.Dev.Site(a2, norb)
		copyWindow(s.GL.Block(ik, ie, a2), sol.GL[sl], off, off, norb)
		copyWindow(s.GG.Block(ik, ie, a2), sol.GG[sl], off, off, norb)
	}

	// Observables. Meir-Wingreen contact currents:
	// I_c(E) = Tr[Σ<_c·G> − Σ>_c·G<] evaluated at the contact slab.
	res.IE = ie
	clear(res.DissipatedPerSlab) // accumulated per atom below
	for i := 0; i < nb; i++ {
		var tr complex128
		for r := 0; r < bs; r++ {
			tr += sol.GR[i].At(r, r)
		}
		res.LDOS[i] = -imag(tr) / 3.141592653589793
	}
	gammaTermL := contactCurrent(left.Gamma, fL, sol.GL[0], sol.GG[0])
	gammaTermR := contactCurrent(right.Gamma, fR, sol.GL[nb-1], sol.GG[nb-1])
	res.CurrentL = gammaTermL
	res.CurrentR = gammaTermR
	res.EnergyL = e * gammaTermL

	// Interface currents, rightward-positive: in the steady ballistic
	// state these equal the left-contact injection current.
	// J_{i→i+1} = 2·Re Tr[H_{i,i+1}·G<_{i+1,i}].
	for i := 0; i+1 < nb; i++ {
		j := 2 * realTraceMul(h.Upper[i], sol.GLLower[i])
		res.InterfaceCurrent[i] = j
		res.InterfaceEnergy[i] = e * j
	}

	// Local collision integral: energy transferred to the lattice in each
	// slab, E·Tr[Σ<_S·G> − Σ>_S·G<] with scattering self-energies only.
	for a2 := 0; a2 < p.Na; a2++ {
		sl, off := s.Dev.Site(a2, norb)
		sL := s.SigL.Block(ik, ie, a2)
		sG := s.SigG.Block(ik, ie, a2)
		var tr complex128
		for r := 0; r < norb; r++ {
			for c := 0; c < norb; c++ {
				gG := sol.GG[sl].At(off+c, off+r)
				gL := sol.GL[sl].At(off+c, off+r)
				tr += sL[r*norb+c]*gG - sG[r*norb+c]*gL
			}
		}
		res.DissipatedPerSlab[sl] += e * real(tr)
	}
	return nil
}

// contactCurrent computes Tr[Σ<_c·G> − Σ>_c·G<] with Σ<_c = i·f·Γ and
// Σ>_c = −i·(1−f)·Γ, reduced to real arithmetic:
// = Re{ i·Tr[Γ·(f·G> + (1−f)·G<)] }.
func contactCurrent(gamma *linalg.Matrix, f float64, gl, gg *linalg.Matrix) float64 {
	n := gamma.Rows
	var tr complex128
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			tr += gamma.At(r, c) * (complex(f, 0)*gg.At(c, r) + complex(1-f, 0)*gl.At(c, r))
		}
	}
	return real(complex(0, 1) * tr)
}

// realTraceMul returns Re Tr[A·B].
func realTraceMul(a, b *linalg.Matrix) float64 {
	var tr complex128
	for r := 0; r < a.Rows; r++ {
		arow := a.Row(r)
		for c, av := range arow {
			tr += av * b.Data[c*b.Cols+r]
		}
	}
	return real(tr)
}
