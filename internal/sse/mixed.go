package sse

import (
	"repro/internal/device"
	"repro/internal/half"
	"repro/internal/linalg"
	"repro/internal/tensor"
)

// Mixed is the §5.4 mixed-precision SSE kernel: it runs the DaCe schedule
// with every input tensor (∇H, G≷, D≷) quantized through emulated IEEE
// binary16, reproducing the Tensor-Core data path — fp16 inputs, wide
// accumulation, dynamic per-tensor normalization factors computed from the
// input magnitudes, clamping for out-of-range values, and algebraic
// denormalization of the results.
//
// With Normalize=false the quantization happens at the raw magnitudes, the
// ablation of Fig. 7 "without normalization": the tiny Green's-function
// values fall below the fp16 subnormal floor and the self-consistent loop
// converges to a visibly wrong current.
// Atoms/ELo/EHi carry the same tile restriction as DaCe (nil/0 = full),
// so a distributed rank can run its Ta×TE tile of the exchange in mixed
// precision; summing restricted outputs over a partition of
// atoms×energies reproduces the full mixed result.
type Mixed struct {
	// Normalize enables the dynamic normalization factors (§5.4). The
	// paper's default; disable only for the Fig. 7 ablation.
	Normalize bool
	// Atoms restricts the kernel to a subset of atoms (nil = all).
	Atoms []int
	// ELo, EHi restrict the owned electron energy range (0, 0 = full).
	ELo, EHi int
}

// Name implements Kernel.
func (m Mixed) Name() string {
	if m.Normalize {
		return "Mixed-16 (normalized)"
	}
	return "Mixed-16 (unnormalized)"
}

// Compute implements Kernel.
func (m Mixed) Compute(in *Input) *Output {
	restr := (DaCe{Atoms: m.Atoms, ELo: m.ELo, EHi: m.EHi}).mustRestrict(in)

	// Per-tensor normalization factors from input magnitudes.
	sG, sD, sH := 1.0, 1.0, 1.0
	if m.Normalize {
		sG = half.ScaleFor(maxAbs2(in.GL.Data, in.GG.Data))
		sD = half.ScaleFor(maxAbs2(in.DL.Data, in.DG.Data))
		sH = half.ScaleFor(maxGradH(in.Dev))
	}

	// Quantize the Green's functions into scaled fp16-valued copies.
	qIn := &Input{
		Dev: in.Dev,
		GL:  quantizeElectron(in.GL, sG),
		GG:  quantizeElectron(in.GG, sG),
		DL:  quantizePhonon(in.DL, sD),
		DG:  quantizePhonon(in.DG, sD),
	}

	// Quantize the coupling matrices once up front.
	type pd struct{ a, b, i int }
	qGrad := make(map[pd]*linalg.Matrix)
	for a := 0; a < in.Dev.P.Na; a++ {
		for _, b := range in.Dev.Neigh[a] {
			for i := 0; i < 3; i++ {
				g := in.Dev.GradH(a, b, i)
				qg := linalg.New(g.Rows, g.Cols)
				for e, v := range g.Data {
					qg.Data[e] = quantizeC(v, sH)
				}
				qGrad[pd{a, b, i}] = qg
			}
		}
	}

	q := &quantizer{
		gradH: func(a, b, i int) *linalg.Matrix { return qGrad[pd{a, b, i}] },
		// Σ carries ∇H·G·∇H·D̃ → sH²·sG·sD; Π carries ∇H·G·∇H·G → sH²·sG².
		denormSigma: complex(1/(sH*sH*sG*sD), 0),
		denormPi:    complex(1/(sH*sH*sG*sG), 0),
	}
	out := daceCompute(qIn, q, restr)
	// Halve the byte estimate for the quantized inputs (fp16 vs fp64),
	// reflecting the reduced memory traffic of SSE-16 in Fig. 10.
	out.Stats.BytesMoved -= (in.GL.Bytes() + in.GG.Bytes() + in.DL.Bytes() + in.DG.Bytes()) * 3 / 4
	return out
}

func quantizeC(v complex128, scale float64) complex128 {
	return complex(half.Quantize(real(v)*scale), half.Quantize(imag(v)*scale))
}

func quantizeElectron(t *tensor.Electron, scale float64) *tensor.Electron {
	q := tensor.NewElectron(t.Nkz, t.NE, t.Na, t.Norb)
	for i, v := range t.Data {
		q.Data[i] = quantizeC(v, scale)
	}
	return q
}

func quantizePhonon(t *tensor.Phonon, scale float64) *tensor.Phonon {
	q := tensor.NewPhonon(t.Nqz, t.Nw, t.Na, t.NbP1, t.N3D)
	for i, v := range t.Data {
		q.Data[i] = quantizeC(v, scale)
	}
	return q
}

func maxAbs2(a, b []complex128) float64 {
	m := half.MaxAbsComplex(a)
	if m2 := half.MaxAbsComplex(b); m2 > m {
		m = m2
	}
	return m
}

func maxGradH(d *device.Device) float64 {
	var m float64
	for a := 0; a < d.P.Na; a++ {
		for _, b := range d.Neigh[a] {
			for i := 0; i < 3; i++ {
				if x := d.GradH(a, b, i).MaxAbs(); x > m {
					m = x
				}
			}
		}
	}
	return m
}
