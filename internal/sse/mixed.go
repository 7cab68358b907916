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
	out := NewOutput(in)
	m.NewTile(in).Compute(in, out)
	return out
}

// NewTile compiles the kernel's tile for in's shape: the DaCe schedule
// over quantized copies of the inputs, with the coupling matrices — whose
// normalization depends on the device alone — quantized once here.
func (m Mixed) NewTile(in *Input) *Tile {
	restr := (DaCe{Atoms: m.Atoms, ELo: m.ELo, EHi: m.EHi}).mustRestrict(in)
	mt := &mixedTile{
		normalize: m.Normalize,
		sH:        1,
		q: &Input{
			Dev: in.Dev,
			GL:  tensor.NewElectron(in.GL.Nkz, in.GL.NE, in.GL.Na, in.GL.Norb),
			GG:  tensor.NewElectron(in.GG.Nkz, in.GG.NE, in.GG.Na, in.GG.Norb),
			DL:  tensor.NewPhonon(in.DL.Nqz, in.DL.Nw, in.DL.Na, in.DL.NbP1, in.DL.N3D),
			DG:  tensor.NewPhonon(in.DG.Nqz, in.DG.Nw, in.DG.Na, in.DG.NbP1, in.DG.N3D),
		},
		grad: make(map[gradKey]*linalg.Matrix),
	}
	if m.Normalize {
		mt.sH = half.ScaleFor(maxGradH(in.Dev))
	}
	for a := 0; a < in.Dev.P.Na; a++ {
		for _, b := range in.Dev.Neigh[a] {
			for i := 0; i < 3; i++ {
				g := in.Dev.GradH(a, b, i)
				qg := linalg.New(g.Rows, g.Cols)
				quantizeInto(qg.Data, g.Data, mt.sH)
				mt.grad[gradKey{a, b, i}] = qg
			}
		}
	}
	return newTile(in, restr, mt)
}

// gradKey names the coupling block ∇iH_ab.
type gradKey struct{ a, b, i int }

// mixedTile is what a Mixed tile keeps besides the DaCe schedule: the
// scaled fp16-valued copies of the Green's functions (rewritten by every
// call) and of the coupling matrices (written once).
type mixedTile struct {
	normalize bool
	sH        float64 // coupling normalization
	q         *Input
	grad      map[gradKey]*linalg.Matrix
}

// quantize rewrites the copies from in with per-tensor normalization
// factors taken from its magnitudes, and returns the inverse factors the
// final accumulations carry: Σ carries ∇H·G·∇H·D̃ → sH²·sG·sD, Π carries
// ∇H·G·∇H·G → sH²·sG².
func (mt *mixedTile) quantize(in *Input) (denormSigma, denormPi complex128) {
	sG, sD, sH := 1.0, 1.0, mt.sH
	if mt.normalize {
		sG = half.ScaleFor(maxAbs2(in.GL.Data, in.GG.Data))
		sD = half.ScaleFor(maxAbs2(in.DL.Data, in.DG.Data))
	}
	quantizeInto(mt.q.GL.Data, in.GL.Data, sG)
	quantizeInto(mt.q.GG.Data, in.GG.Data, sG)
	quantizeInto(mt.q.DL.Data, in.DL.Data, sD)
	quantizeInto(mt.q.DG.Data, in.DG.Data, sD)
	return complex(1/(sH*sH*sG*sD), 0), complex(1/(sH*sH*sG*sG), 0)
}

func quantizeC(v complex128, scale float64) complex128 {
	return complex(half.Quantize(real(v)*scale), half.Quantize(imag(v)*scale))
}

// quantizeInto writes the scaled binary16 rounding of src into dst.
func quantizeInto(dst, src []complex128, scale float64) {
	for i, v := range src {
		dst[i] = quantizeC(v, scale)
	}
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
