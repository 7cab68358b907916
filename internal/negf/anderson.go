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

// andersonState carries the history the accelerator needs.
type andersonState struct {
	prevX []complex128 // x_{n-1}
	prevF []complex128 // f_{n-1}
	haveH bool
}

// MixAnderson updates the point solver's self-energy tensors in place
// from the freshly computed SSE output using Anderson extrapolation with
// underlying linear-mixing factor mixing. The history lives on the point
// solver; its one caller is the mix/anderson node of a one-rank window
// graph, which owns the whole state.
func (ps *PointSolver) MixAnderson(out *sse.Output, mixing float64) {
	x := concatViews(ps.SigL.Data, ps.SigG.Data, ps.PiL.Data, ps.PiG.Data)
	fx := make([]complex128, len(x.flat))
	computed := concatViews(out.SigL.Data, out.SigG.Data, out.PiL.Data, out.PiG.Data)
	for i := range fx {
		fx[i] = computed.flat[i] - x.flat[i]
	}

	beta := complex(mixing, 0)
	st := ps.anderson
	if st == nil {
		st = &andersonState{}
		ps.anderson = st
	}

	next := make([]complex128, len(fx))
	if !st.haveH {
		for i := range next {
			next[i] = x.flat[i] + beta*fx[i]
		}
	} else {
		var num, den complex128
		for i := range fx {
			df := fx[i] - st.prevF[i]
			num += conj(df) * fx[i]
			den += conj(df) * df
		}
		theta := complex(0, 0)
		if real(den) > 0 {
			theta = num / den
			if mag := real(theta)*real(theta) + imag(theta)*imag(theta); mag > 4 {
				theta *= complex(2/math.Sqrt(mag), 0)
			}
		}
		for i := range next {
			dx := x.flat[i] - st.prevX[i]
			df := fx[i] - st.prevF[i]
			next[i] = x.flat[i] + beta*fx[i] - theta*(dx+beta*df)
		}
	}
	st.prevX = append(st.prevX[:0], x.flat...)
	st.prevF = append(st.prevF[:0], fx...)
	st.haveH = true
	x.scatter(next)
}

// concatView lets the accelerator treat the four tensors as one vector
// without copying them around permanently.
type concatView struct {
	parts [][]complex128
	flat  []complex128
}

func concatViews(parts ...[]complex128) *concatView {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	flat := make([]complex128, 0, total)
	for _, p := range parts {
		flat = append(flat, p...)
	}
	return &concatView{parts: parts, flat: flat}
}

// scatter writes a flat vector back into the underlying tensors.
func (v *concatView) scatter(flat []complex128) {
	off := 0
	for _, p := range v.parts {
		copy(p, flat[off:off+len(p)])
		off += len(p)
	}
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }
