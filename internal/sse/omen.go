package sse

import (
	"runtime"
	"sync/atomic"

	"repro/internal/linalg"
)

// OMEN is the baseline kernel: the straightforward translation of
// Eqs. (2)–(3), evaluating two fresh small matrix multiplications for
// every (kz, E, qz, ω, a, b, i, j) tuple, exactly as the original OMEN
// electron–phonon model does before the data-centric transformations.
//
// Mask optionally restricts the kernel to a subset of electron
// (kz, E) pairs — the unit of work the original momentum×energy domain
// decomposition distributes (Fig. 5, left). With a mask, Σ≷ is produced
// only for masked pairs and Π≷ holds the partial sums over masked pairs;
// summing the outputs over a partition of the mask reproduces the full
// result.
type OMEN struct {
	Mask func(ik, ie int) bool
}

// Name implements Kernel.
func (OMEN) Name() string { return "OMEN" }

// Compute implements Kernel.
func (o OMEN) Compute(in *Input) *Output {
	out := NewOutput(in)
	masked := func(ik, ie int) bool { return o.Mask != nil && !o.Mask(ik, ie) }
	p := in.Dev.P
	norb := p.Norb
	nw := p.Nomega
	nkz, ne := p.Nkz, p.NE
	prefS := prefSigma(p)
	prefP := prefPi(p)
	var matmuls, scalarOps atomic.Int64

	perAtom := func(a int) error {
		var wl, wg [9]complex128
		gmix := linalg.New(norb, norb)
		tmp := linalg.New(norb, norb)
		var localMuls, localScalar int64
		// gAB[k][i] = ∇iH_ab and gBA[k][i] = ∇iH_ba for b = nbs[k].
		nbs := in.Dev.Neigh[a]
		gAB, gBA := make([][3]*linalg.Matrix, len(nbs)), make([][3]*linalg.Matrix, len(nbs))
		for k, b := range nbs {
			for i := 0; i < 3; i++ {
				gAB[k][i] = linalg.FromSlice(norb, norb, in.Dev.GradH(a, 1+k, i))
				gBA[k][i] = linalg.FromSlice(norb, norb, in.Dev.GradH(b, in.Dev.MirrorSlot(a, 1+k), i))
			}
		}
		for k, b := range nbs {
			slotAB, slotBA := 1+k, in.Dev.MirrorSlot(a, 1+k)
			// Σ≷_aa: loop the full stencil naively.
			for ik := 0; ik < nkz; ik++ {
				for iq := 0; iq < nkz; iq++ {
					ikq := ((ik-iq)%nkz + nkz) % nkz
					for m := 1; m <= nw; m++ {
						dTilde(in.DL, in.DG, iq, m-1, a, b, slotAB, slotBA, &wl, &wg)
						for ie := 0; ie < ne; ie++ {
							if masked(ik, ie) {
								continue
							}
							for i := 0; i < 3; i++ {
								gih := gAB[k][i]
								for j := 0; j < 3; j++ {
									gjh := gBA[k][j]
									wle := wl[i*3+j]
									wge := wg[i*3+j]
									// Lesser: G<(E−ω)·D̃< + G<(E+ω)·D̃>.
									gmix.Zero()
									n := 0
									if ie-m >= 0 {
										linalg.AXPY(gmix, wle, in.GL.Mat(ikq, ie-m, b))
										n++
									}
									if ie+m < ne {
										linalg.AXPY(gmix, wge, in.GL.Mat(ikq, ie+m, b))
										n++
									}
									if n > 0 {
										linalg.GEMM(1, gih, linalg.NoTrans, gmix, linalg.NoTrans, 0, tmp)
										linalg.GEMM(prefS, tmp, linalg.NoTrans, gjh, linalg.NoTrans, 1, out.SigL.Mat(ik, ie, a))
										localMuls += 2
										localScalar += int64(n) * int64(norb*norb) * 8
									}
									// Greater: G>(E+ω)·D̃< + G>(E−ω)·D̃>.
									gmix.Zero()
									n = 0
									if ie+m < ne {
										linalg.AXPY(gmix, wle, in.GG.Mat(ikq, ie+m, b))
										n++
									}
									if ie-m >= 0 {
										linalg.AXPY(gmix, wge, in.GG.Mat(ikq, ie-m, b))
										n++
									}
									if n > 0 {
										linalg.GEMM(1, gih, linalg.NoTrans, gmix, linalg.NoTrans, 0, tmp)
										linalg.GEMM(prefS, tmp, linalg.NoTrans, gjh, linalg.NoTrans, 1, out.SigG.Mat(ik, ie, a))
										localMuls += 2
										localScalar += int64(n) * int64(norb*norb) * 8
									}
								}
							}
						}
					}
				}
			}
		}
		// Π≷: diagonal slot (l over neighbours) and neighbour slots (l=b).
		x := linalg.New(norb, norb)
		y := linalg.New(norb, norb)
		x2 := linalg.New(norb, norb)
		y2 := linalg.New(norb, norb)
		for iq := 0; iq < nkz; iq++ {
			for m := 1; m <= nw; m++ {
				for slot := 0; slot <= len(nbs); slot++ {
					lo, hi := 0, len(nbs) // the l = nbs[k] this Π_ab block traces: all, or b
					if slot > 0 {
						lo, hi = slot-1, slot
					}
					piL := out.PiL.Block(iq, m-1, a, slot)
					piG := out.PiG.Block(iq, m-1, a, slot)
					for k := lo; k < hi; k++ {
						l := nbs[k]
						for ik := 0; ik < nkz; ik++ {
							ikpq := (ik + iq) % nkz
							for ie := 0; ie+m < ne; ie++ {
								// Ownership of a Π contribution follows the
								// upper pair (kz+qz, E+ω): in the distributed
								// momentum×energy decomposition that rank
								// already received G(kz, E) via the Σ
								// exchange, so no extra transfer is needed.
								if masked(ikpq, ie+m) {
									continue
								}
								for i := 0; i < 3; i++ {
									gil := gBA[k][i]
									for j := 0; j < 3; j++ {
										gjl := gAB[k][j]
										// tr[∇iH_la·G≷_aa(E+ω)·∇jH_al·G≶_ll(E)]
										linalg.GEMM(1, gil, linalg.NoTrans, in.GL.Mat(ikpq, ie+m, a), linalg.NoTrans, 0, x)
										linalg.GEMM(1, gjl, linalg.NoTrans, in.GG.Mat(ik, ie, l), linalg.NoTrans, 0, y)
										piL[i*3+j] += prefP * traceProduct(x, y)
										linalg.GEMM(1, gil, linalg.NoTrans, in.GG.Mat(ikpq, ie+m, a), linalg.NoTrans, 0, x2)
										linalg.GEMM(1, gjl, linalg.NoTrans, in.GL.Mat(ik, ie, l), linalg.NoTrans, 0, y2)
										piG[i*3+j] += prefP * traceProduct(x2, y2)
										localMuls += 4
									}
								}
							}
						}
					}
				}
			}
		}
		matmuls.Add(localMuls)
		scalarOps.Add(localScalar)
		return nil
	}
	linalg.ParallelFor(p.Na, runtime.GOMAXPROCS(0), func() func(int) error { return perAtom })

	n3 := int64(norb) * int64(norb) * int64(norb)
	out.Stats = Stats{
		MatMuls:   matmuls.Load(),
		Flops:     matmuls.Load() * 8 * n3,
		ScalarOps: scalarOps.Load(),
		BytesMoved: in.GL.Bytes() + in.GG.Bytes() + in.DL.Bytes() + in.DG.Bytes() +
			out.SigL.Bytes() + out.SigG.Bytes() + out.PiL.Bytes() + out.PiG.Bytes(),
	}
	return out
}

// traceProduct returns tr(X·Y) without forming the product matrix.
func traceProduct(x, y *linalg.Matrix) complex128 {
	var t complex128
	n := x.Rows
	for r := 0; r < n; r++ {
		xr := x.Row(r)
		for s := 0; s < n; s++ {
			t += xr[s] * y.Data[s*n+r]
		}
	}
	return t
}
