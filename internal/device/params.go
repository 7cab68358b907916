// Package device builds synthetic nano-device structures — the stand-in
// for the CP2K DFT inputs of the original OMEN pipeline.
//
// The paper's solver consumes, per material: the kz-dependent Hamiltonian
// H(kz) and overlap S(kz) (size Na·Norb, block-tridiagonal over bnum
// slabs), the qz-dependent dynamical matrix Φ(qz) (size Na·N3D), and the
// derivative couplings ∇H between neighbouring atoms that enter the
// electron–phonon scattering self-energies (Eqs. 2–3). CP2K produces these
// from ab initio runs; here they are generated deterministically with the
// same structure: Hermiticity, block-tridiagonal sparsity over slabs,
// bounded neighbour lists (Nb), exponentially decaying couplings, periodic
// kz/qz phases for the homogeneous z-direction, and an acoustic-sum-rule
// dynamical matrix. All algorithmic behaviour studied in the paper depends
// on these structural properties and the tensor shapes, not on chemistry,
// which is what makes the substitution faithful: every count the paper
// reports (flops, bytes moved, messages) is a function of the shapes, so
// it is measured here exactly, while wall times are measured at scaled-down
// sizes. The paper-scale numbers come from cmd/paperbench's closed forms
// over the paper's Small and Large structures, which are far too large to
// build here.
package device

import (
	"fmt"
	"math"
)

// Params defines a device structure and its discretization. The fields
// mirror Table 2 of the paper.
type Params struct {
	Na   int // total number of atoms in the simulation slice
	Bnum int // number of block-tridiagonal slabs along transport (x)
	Norb int // orbitals per atom
	NbT  int // target neighbours per atom (Nb)

	Nkz    int // electron momentum points (== Nqz here, as in the paper)
	NE     int // electron energy points
	Nomega int // phonon frequency points (Nω)

	// Energy grid: E_n = Emin + n·DE, n ∈ [0, NE). Phonon frequencies are
	// ω_m = m·DE, m ∈ [1, Nω], so every E ± ω lands exactly on the grid —
	// the alignment that makes the SSE stencil an index shift (Fig. 5).
	Emin float64
	DE   float64

	Mu  float64 // equilibrium chemical potential (eV)
	Vds float64 // drain-source bias (eV); contacts sit at Mu ± Vds/2
	TC  float64 // contact temperature (K)

	Coupling float64 // electron–phonon coupling strength scaling ∇H
	Eta      float64 // GF broadening η (eV)

	Seed uint64 // deterministic structure seed
}

// N3D is the number of crystal vibration degrees of freedom per atom.
const N3D = 3

// Nqz returns the phonon momentum count (equal to Nkz, as in the paper's
// structures where Nkz/Nqz vary together).
func (p Params) Nqz() int { return p.Nkz }

// AtomsPerSlab returns Na/Bnum.
func (p Params) AtomsPerSlab() int { return p.Na / p.Bnum }

// ElBlockSize returns the electron block size (atoms per slab × Norb).
func (p Params) ElBlockSize() int { return p.AtomsPerSlab() * p.Norb }

// PhBlockSize returns the phonon block size (atoms per slab × 3).
func (p Params) PhBlockSize() int { return p.AtomsPerSlab() * N3D }

// Energy returns E_n.
func (p Params) Energy(n int) float64 { return p.Emin + float64(n)*p.DE }

// Omega returns ω_m for m ∈ [1, Nomega].
func (p Params) Omega(m int) float64 { return float64(m) * p.DE }

// kz returns the kz value of index i on the periodic grid [−π, π).
func (p Params) kz(i int) float64 { return -math.Pi + 2*math.Pi*float64(i)/float64(p.Nkz) }

// MuL and MuR are the contact chemical potentials under bias.
func (p Params) MuL() float64 { return p.Mu + p.Vds/2 }

// MuR is the drain-side chemical potential.
func (p Params) MuR() float64 { return p.Mu - p.Vds/2 }

// validate checks internal consistency of the parameters.
func (p Params) Validate() error {
	switch {
	case p.Na <= 0 || p.Bnum <= 0 || p.Norb <= 0:
		return fmt.Errorf("device: Na, Bnum, Norb must be positive (got %d, %d, %d)", p.Na, p.Bnum, p.Norb)
	case p.Na%p.Bnum != 0:
		return fmt.Errorf("device: Na (%d) must be divisible by Bnum (%d)", p.Na, p.Bnum)
	case p.Bnum < 3:
		return fmt.Errorf("device: need at least 3 slabs for contacts + channel, got %d", p.Bnum)
	case p.NbT <= 0:
		return fmt.Errorf("device: NbT must be positive (got %d): a device without neighbours has no transport", p.NbT)
	case p.Nkz <= 0 || p.NE <= 0 || p.Nomega <= 0:
		return fmt.Errorf("device: Nkz, NE, Nomega must be positive")
	case p.Nomega >= p.NE:
		return fmt.Errorf("device: Nomega (%d) must be < NE (%d) so E±ω shifts stay mostly on-grid", p.Nomega, p.NE)
	case p.DE <= 0:
		return fmt.Errorf("device: DE must be positive")
	case !isFinite(p.DE):
		return fmt.Errorf("device: DE must be finite (got %g)", p.DE)
	case !isFinite(p.Emin):
		return fmt.Errorf("device: Emin must be finite (got %g): a NaN/Inf grid origin poisons every energy point", p.Emin)
	case !isFinite(p.Coupling):
		return fmt.Errorf("device: Coupling must be finite (got %g): NaN would propagate silently through ∇H into Σ≷", p.Coupling)
	case !isFinite(p.Vds) || !isFinite(p.Mu):
		return fmt.Errorf("device: Vds and Mu must be finite (got %g, %g): a NaN/Inf contact potential poisons every Fermi factor", p.Vds, p.Mu)
	case p.Eta <= 0:
		return fmt.Errorf("device: Eta must be positive")
	case !isFinite(p.Eta):
		return fmt.Errorf("device: Eta must be finite (got %g)", p.Eta)
	case p.TC <= 0:
		return fmt.Errorf("device: contact temperature must be positive")
	case !isFinite(p.TC):
		return fmt.Errorf("device: contact temperature must be finite (got %g)", p.TC)
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestParams returns a small, fast structure for unit and integration
// tests: na atoms in bnum slabs with norb orbitals.
func TestParams(na, bnum, norb int) Params {
	return Params{
		Na: na, Bnum: bnum, Norb: norb, NbT: 6,
		Nkz: 3, NE: 24, Nomega: 4,
		Emin: -1.2, DE: 0.1,
		Mu: 0.0, Vds: 0.3, TC: 300,
		Coupling: 0.08, Eta: 1e-4,
		Seed: 0x5eed,
	}
}

// Boltzmann constant in eV/K.
const boltzmann = 8.617333262e-5

// FermiDirac returns the Fermi-Dirac occupation at energy e (eV) for
// chemical potential mu (eV) and temperature t (K).
func FermiDirac(e, mu, t float64) float64 {
	x := (e - mu) / (boltzmann * t)
	if x > 40 {
		return math.Exp(-x)
	}
	if x < -40 {
		return 1
	}
	return 1 / (1 + math.Exp(x))
}

// BoseEinstein returns the Bose-Einstein occupation at frequency w (eV)
// and temperature t (K).
func BoseEinstein(w, t float64) float64 {
	x := w / (boltzmann * t)
	if x > 40 {
		return math.Exp(-x)
	}
	return 1 / math.Expm1(x)
}
