// Package sse evaluates the electron–phonon scattering self-energies — the
// SSE phase of the paper (Eqs. 2–3) and the subject of its headline
// dataflow transformations (§5.3, Fig. 6).
//
// Three kernels compute the identical mathematical result:
//
//   - OMEN:  the original schedule — an 8-deep loop nest over
//     (kz, E, qz, ω, a, b, i, j) performing two fresh Norb×Norb matrix
//     multiplications per term.
//   - DaCe:  the data-centric schedule — map fission isolates the
//     ∇H·G≷ products into reusable transients, the ω accumulation becomes
//     scalar AXPYs over a constant-stride layout, and the final
//     multiplications run as strided-batched SBSMM with a fixed right-hand
//     operand. Multiplication count drops by ~6·Nω (the paper's ½-flop
//     algebraic regrouping plus transient reuse).
//   - Mixed: the DaCe schedule with the multiplications executed in
//     emulated half precision (normalized split-complex inputs, fp64
//     accumulation), modelling the Tensor-Core path of §5.4.
//
// The discretized equations, folded onto positive frequencies using the
// bosonic identity D≷(−ω) = D≶(ω):
//
//	Σ≷_aa(kz,E) = i·(dE/2π)/Nqz · Σ_{qz,m,b,i,j} ∇iH_ab ·
//	   [ G≷_bb(kz−qz, E∓ω_m)·D̃≷_ij(qz,ω_m)
//	   + G≷_bb(kz−qz, E±ω_m)·D̃≶_ij(qz,ω_m) ] · ∇jH_ba
//
//	Π≷_ab,ij(qz,ω) = −i·(dE/2π)/Nkz · Σ_{kz,n,l} tr[ ∇iH_la ·
//	   G≷_aa(kz+qz, E_n+ω) · ∇jH_al · G≶_ll(kz, E_n) ]
//
// with D̃_ij = D_ba,ij − D_bb,ij − D_aa,ij + D_ab,ij (the four-block phonon
// displacement combination of Eq. 2) and l = b for a ≠ b, l ∈ neigh(a) for
// the diagonal blocks. Energy shifts that leave the grid are dropped by
// every kernel identically.
package sse

import (
	"math/rand"

	"repro/internal/device"
	"repro/internal/tensor"
)

// RandomInput synthesizes Gaussian Green's-function tensors shaped for
// dev — the standard workload of the exchange-level experiments
// (decomposition studies, wire-format benchmarks), which move data
// without caring where it came from. Deterministic in seed.
func RandomInput(dev *device.Device, seed int64) *Input {
	p := dev.P
	rng := rand.New(rand.NewSource(seed))
	gl := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
	gg := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
	nbp1 := dev.MaxNb() + 1
	dl := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
	dg := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
	for _, buf := range [][]complex128{gl.Data, gg.Data, dl.Data, dg.Data} {
		for i := range buf {
			buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return &Input{Dev: dev, GL: gl, GG: gg, DL: dl, DG: dg}
}

// Input bundles the Green's functions entering an SSE evaluation.
type Input struct {
	Dev    *device.Device
	GL, GG *tensor.Electron // electron G≷ [Nkz, NE, Na, Norb, Norb]
	DL, DG *tensor.Phonon   // phonon D≷ [Nqz, Nω, Na, Nb+1, 3, 3]
}

// Output holds the computed scattering self-energies plus kernel counters.
type Output struct {
	SigL, SigG *tensor.Electron
	PiL, PiG   *tensor.Phonon
	Stats      Stats
}

// Stats reports the arithmetic actually executed by a kernel.
type Stats struct {
	MatMuls    int64 // Norb×Norb (or trace-contraction) multiplications
	Flops      int64 // real flops of those multiplications
	ScalarOps  int64 // scalar-weighted AXPY flops (memory-bound part)
	BytesMoved int64 // tensor bytes read/written (roofline denominator)
}

// Kernel is one SSE implementation variant.
type Kernel interface {
	Name() string
	Compute(in *Input) *Output
}

// newOutput allocates zeroed result tensors shaped like the inputs.
func newOutput(in *Input) *Output {
	return &Output{
		SigL: tensor.NewElectron(in.GL.Nkz, in.GL.NE, in.GL.Na, in.GL.Norb),
		SigG: tensor.NewElectron(in.GL.Nkz, in.GL.NE, in.GL.Na, in.GL.Norb),
		PiL:  tensor.NewPhonon(in.DL.Nqz, in.DL.Nw, in.DL.Na, in.DL.NbP1, in.DL.N3D),
		PiG:  tensor.NewPhonon(in.DL.Nqz, in.DL.Nw, in.DL.Na, in.DL.NbP1, in.DL.N3D),
	}
}

// prefSigma returns the Σ≷ prefactor i·(dE/2π)/Nqz.
func prefSigma(p device.Params) complex128 {
	return complex(0, p.DE/(2*3.141592653589793)/float64(p.Nqz()))
}

// prefPi returns the Π≷ prefactor −i·(dE/2π)/Nkz.
func prefPi(p device.Params) complex128 {
	return complex(0, -p.DE/(2*3.141592653589793)/float64(p.Nkz))
}

// dTilde computes the 3×3 scalar weight matrices D̃≷_ij(qz, ω) for an
// ordered pair (a, b): D̃_ij = D_ba,ij − D_bb,ij − D_aa,ij + D_ab,ij.
// slotAB is the neighbour slot of b in a's list, slotBA of a in b's list.
func dTilde(dl, dg *tensor.Phonon, iq, iw, a, b, slotAB, slotBA int, wl, wg *[9]complex128) {
	dba := dl.Block(iq, iw, b, 1+slotBA)
	dbb := dl.Block(iq, iw, b, 0)
	daa := dl.Block(iq, iw, a, 0)
	dab := dl.Block(iq, iw, a, 1+slotAB)
	for e := 0; e < 9; e++ {
		wl[e] = dba[e] - dbb[e] - daa[e] + dab[e]
	}
	gba := dg.Block(iq, iw, b, 1+slotBA)
	gbb := dg.Block(iq, iw, b, 0)
	gaa := dg.Block(iq, iw, a, 0)
	gab := dg.Block(iq, iw, a, 1+slotAB)
	for e := 0; e < 9; e++ {
		wg[e] = gba[e] - gbb[e] - gaa[e] + gab[e]
	}
}
