package negf

import (
	"math"
	"testing"
)

// Physics-invariant suite: current conservation across the slab
// interfaces and the anti-Hermitian identity of the correlation
// functions, asserted for both the FP64 SSE path and the §5.4
// mixed-precision path.
//
// Documented tolerances (relative, against the relevant scale), with the
// physical mechanism that sets each bound. Measured values on the test
// structure sit 2–3× below every tolerance:
//
//	ballistic current conservation     2e-2   the finite broadening η acts
//	                                          as a weak uniform absorber, so
//	                                          the continuity identity holds
//	                                          only to O(η/ΔE) (≈7e-3 here);
//	                                          not an arithmetic limit
//	SCBA current conservation          3e-2   the η leak plus the
//	 (fp64 and mixed)                         self-consistency residual at
//	                                          the loop tolerance (≈9e-3);
//	                                          quantization (≈1e-3 on Σ≷) is
//	                                          far below, so the mixed bound
//	                                          does not degrade
//	G≷ anti-Hermiticity, ballistic     1e-12  Σ≷ are exactly anti-Hermitian
//	                                          boundary injections: machine
//	                                          rounding only
//	G≷ anti-Hermiticity, SCBA fp64     5e-3   the discretized ω-stencil D̃
//	                                          weights carry a small
//	                                          non-Hermitian component, so
//	                                          the scattering Σ≷ break the
//	                                          identity at ≈1.6e-3 — a
//	                                          discretization property, not
//	                                          rounding
//	G≷ anti-Hermiticity, SCBA mixed    1e-2   the same stencil limit plus
//	                                          ε₁₆ quantization headroom
//	                                          (measured: indistinguishable
//	                                          from fp64 at 1.6e-3)
const (
	ballisticConservTol = 2e-2
	scbaConservTol      = 3e-2
	antiHermBallistic   = 1e-12
	antiHermFP64        = 5e-3
	antiHermMixed       = 1e-2
)

// conservationResidual returns the worst relative deviation of any
// interface current from the left-contact current — zero for an exactly
// conserved steady-state current.
func conservationResidual(obs *Observables) float64 {
	scale := math.Abs(obs.CurrentL)
	var worst float64
	for _, j := range obs.InterfaceCurrent {
		if r := math.Abs(j-obs.CurrentL) / scale; r > worst {
			worst = r
		}
	}
	return worst
}

// TestCurrentConservationBallistic: without scattering every slab
// interface must carry the injected contact current up to the η leak —
// the continuity statement of the steady state.
func TestCurrentConservationBallistic(t *testing.T) {
	s := ballistic(t, testParams())
	if r := conservationResidual(&s.Obs); r > ballisticConservTol {
		t.Fatalf("ballistic interface currents deviate by %.3g (tol %g): I_L=%g profile=%v",
			r, ballisticConservTol, s.Obs.CurrentL, s.Obs.InterfaceCurrent)
	}
}

// antiHermResidual measures the worst violation of B† = −B over the
// diagonal G≷ blocks, relative to each plane's magnitude: the
// correlation functions i·G<(E), i·G>(E) are Hermitian with definite
// sign, so G≷_aa(kz, E) must be anti-Hermitian.
func antiHermResidual(s *Solver) float64 {
	p := s.Dev.P
	norb := p.Norb
	var worst float64
	check := func(blk []complex128, scale float64) {
		for r := 0; r < norb; r++ {
			for c := 0; c < norb; c++ {
				v := blk[r*norb+c] + cconj(blk[c*norb+r])
				if d := math.Hypot(real(v), imag(v)) / scale; d > worst {
					worst = d
				}
			}
		}
	}
	for ik := 0; ik < p.Nkz; ik++ {
		for ie := 0; ie < p.NE; ie++ {
			var scale float64
			for a := 0; a < p.Na; a++ {
				for _, v := range s.GL.Block(ik, ie, a) {
					if m := math.Hypot(real(v), imag(v)); m > scale {
						scale = m
					}
				}
				for _, v := range s.GG.Block(ik, ie, a) {
					if m := math.Hypot(real(v), imag(v)); m > scale {
						scale = m
					}
				}
			}
			if scale == 0 {
				continue
			}
			for a := 0; a < p.Na; a++ {
				check(s.GL.Block(ik, ie, a), scale)
				check(s.GG.Block(ik, ie, a), scale)
			}
		}
	}
	return worst
}

func cconj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// TestGAntiHermitianBallistic: with only the boundary injections
// (Σ< = i·f·Γ, Σ> = −i·(1−f)·Γ, Γ Hermitian) the identity is exact to
// machine rounding.
func TestGAntiHermitianBallistic(t *testing.T) {
	s := ballistic(t, testParams())
	if r := antiHermResidual(s); r > antiHermBallistic {
		t.Fatalf("ballistic G≷ anti-Hermiticity violated: %.3g (tol %g)", r, antiHermBallistic)
	}
}
