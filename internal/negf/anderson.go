package negf

import (
	"math"

	"repro/internal/sse"
)

// Anderson acceleration (depth-1) for the self-consistent Born loop — an
// extension over the paper's plain iteration. The GF↔SSE cycle is a fixed
// point Σ = F(Σ); with scattering strong enough, linear mixing converges
// geometrically and slowly (the paper reports 20–100 iterations). Depth-1
// Anderson mixing extrapolates along the residual difference and typically
// cuts the iteration count substantially at no extra solver cost.
//
// State vector: the concatenation of the four self-energy tensors
// (Σ<, Σ>, Π<, Π>). With β the underlying linear-mixing factor and
// residual f_n = F(x_n) − x_n:
//
//	θ_n    = ⟨Δf, f_n⟩ / ⟨Δf, Δf⟩,  Δf = f_n − f_{n−1}
//	x_{n+1} = x_n + β·f_n − θ_n·(Δx + β·Δf)
//
// For θ = 0 this reduces to plain linear mixing; θ is clamped to [−2, 2]
// to keep early iterations stable.

// andersonState carries the history the accelerator needs, as one
// vector over the four tensors in state order.
type andersonState struct {
	prevX []complex128 // x_{n-1}
	prevF []complex128 // f_{n-1}
	haveH bool
}

// MixAnderson updates the point solver's self-energy tensors in place
// from the freshly computed SSE output using Anderson extrapolation with
// underlying linear-mixing factor mixing. The history lives on the point
// solver; its one caller is the mix/anderson node of a one-rank window
// graph, which owns the whole state. The four (state, output) tensor
// pairs are walked in place as one vector, so a mix allocates nothing
// once the history exists.
func (ps *PointSolver) MixAnderson(out *sse.Output, mixing float64) {
	xs := [4][]complex128{ps.SigL.Data, ps.SigG.Data, ps.PiL.Data, ps.PiG.Data}
	fs := [4][]complex128{out.SigL.Data, out.SigG.Data, out.PiL.Data, out.PiG.Data}
	st := ps.anderson
	if st == nil {
		n := 0
		for _, x := range xs {
			n += len(x)
		}
		st = &andersonState{prevX: make([]complex128, n), prevF: make([]complex128, n)}
		ps.anderson = st
	}

	// θ from the residual difference, summed in vector order. The
	// residual f = F(x) − x is recomputed where it is needed.
	theta := complex(0, 0)
	if st.haveH {
		var num, den complex128
		off := 0
		for t, x := range xs {
			for i, xi := range x {
				fx := fs[t][i] - xi
				df := fx - st.prevF[off+i]
				num += conj(df) * fx
				den += conj(df) * df
			}
			off += len(x)
		}
		if real(den) > 0 {
			theta = num / den
			if mag := real(theta)*real(theta) + imag(theta)*imag(theta); mag > 4 {
				theta *= complex(2/math.Sqrt(mag), 0)
			}
		}
	}

	beta := complex(mixing, 0)
	off := 0
	for t, x := range xs {
		prevX, prevF := st.prevX[off:off+len(x)], st.prevF[off:off+len(x)]
		for i, xi := range x {
			fx := fs[t][i] - xi
			if st.haveH {
				dx := xi - prevX[i]
				df := fx - prevF[i]
				x[i] = xi + beta*fx - theta*(dx+beta*df)
			} else {
				x[i] = xi + beta*fx
			}
			prevX[i], prevF[i] = xi, fx
		}
		off += len(x)
	}
	st.haveH = true
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
