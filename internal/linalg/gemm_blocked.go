package linalg

// Cache-blocked, packed GEMM. The driver follows the classic three-level
// blocking (Goto/BLIS): NC-wide column blocks of C, KC-deep k-panels
// (packed op(B)), MC-tall row blocks (packed alpha·op(A)), and a
// gemmMR×gemmNR register tile on the packed panels, computed by the AVX2
// assembly micro-kernel on amd64 and by microKernelGo elsewhere.
//
// Bit-identity contract: for every C element the contributions
// (alpha·op(A)[i][k])·op(B)[k][j] are accumulated in ascending k with a
// single accumulator, beta applied exactly once up front, and each
// complex multiply-add rounded exactly as Go's scalar lowering (no FMA
// anywhere) — the same order and association as the retained gemmStripe
// reference, so the blocked kernel produces bitwise-identical results.
// The property suite in gemm_blocked_test.go pins this across all Op
// combinations and edge shapes.
//
// The contract is also independent of the cache blocking — tiling the
// loops differently never reorders one element's k sweep — so the MC/KC/NC
// constants below only shape the cache footprint, never a result.
const (
	// gemmMR×gemmNR is the register tile: 2×8 complex128 = 8 ymm
	// accumulators, which together with 4 broadcast registers and 4
	// temporaries exactly fills the 16 ymm registers of AVX2.
	gemmMR = 2
	gemmNR = 8
	// gemmKC sizes a packed op(B) micro-panel (gemmNR·gemmKC complex128 =
	// 16 KiB) to half the L1 while it is swept by a whole MC row block.
	gemmKC = 128
	// gemmMC bounds the packed alpha·op(A) block (gemmMC·gemmKC = 256 KiB)
	// to the L2 working set.
	gemmMC = 128
	// gemmNC bounds the packed op(B) panel (gemmKC·gemmNC = 512 KiB).
	gemmNC = 256
	// packThreshold is the m·n·k operation count below which a NoTrans
	// problem runs on the unpacked gemmStripe reference instead. Measured
	// crossover on AVX2 is between 4³ and 8³ — packing amortizes almost
	// immediately; transposed operands always pack, which replaces the
	// old per-call .T()/.H() materialization.
	packThreshold = 512
)

// gemmBlocked computes C = alpha·op(A)·op(B) + beta·C through packed
// panels from pb, under the compiled-in cache blocking.
func gemmBlocked(alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix, pb *packBuf) {
	gemmTiled(gemmMC, gemmKC, gemmNC, alpha, a, opA, b, opB, beta, c, pb)
}

// gemmTiled is gemmBlocked under an explicit blocking — mcB-tall row
// blocks, kcB-deep k-panels, ncB-wide column blocks, covering at least one
// register tile (mcB ≥ gemmMR, ncB ≥ gemmNR, kcB ≥ 1). The bitwise
// invariance test drives it with sizes production never uses.
func gemmTiled(mcB, kcB, ncB int, alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix, pb *packBuf) {
	m, n := c.Rows, c.Cols
	_, kk := opDims(a, opA)
	ldc := c.Cols
	// The panels of this problem, not of the blocking: a 12×12 product
	// packs 3 KB, not the 0.8 MB a full MC×KC and KC×NC block would take.
	kcMax := min2(kcB, kk)
	pb.ensure((min2(mcB, m)+gemmMR)*kcMax, (min2(ncB, n)+gemmNR)*kcMax)
	for jc := 0; jc < n; jc += ncB {
		nc := min2(ncB, n-jc)
		for pc := 0; pc < kk; pc += kcB {
			kc := min2(kcB, kk-pc)
			first := pc == 0
			packB(pb.b, b, opB, pc, kc, jc, nc)
			for ic := 0; ic < m; ic += mcB {
				mc := min2(mcB, m-ic)
				packA(pb.a, alpha, a, opA, ic, mc, pc, kc)
				for jt := 0; jt < nc; jt += gemmNR {
					bp := pb.b[jt*kc:]
					nr := min2(gemmNR, nc-jt)
					for it := 0; it < mc; it += gemmMR {
						mr := min2(gemmMR, mc-it)
						cc := c.Data[(ic+it)*ldc+jc+jt:]
						var acc [gemmMR * gemmNR]complex128
						loadAcc(&acc, cc, ldc, mr, nr, beta, first)
						microKernel(kc, pb.a[it*kc:], bp, &acc)
						storeAcc(cc, ldc, mr, nr, &acc)
					}
				}
			}
		}
	}
}

// loadAcc seeds the register-tile accumulators: beta·C on the first
// k-panel (never reading C when beta == 0 — workspace buffers hand out
// uninitialized memory), C itself on subsequent panels. Lanes past the
// mr×nr edge stay zero; their products are discarded by storeAcc.
func loadAcc(acc *[gemmMR * gemmNR]complex128, cc []complex128, ldc, mr, nr int, beta complex128, first bool) {
	if first {
		if beta == 0 {
			return // acc is already zero
		}
		for r := 0; r < mr; r++ {
			crow := cc[r*ldc:]
			if beta == 1 {
				for s := 0; s < nr; s++ {
					acc[r*gemmNR+s] = crow[s]
				}
			} else {
				for s := 0; s < nr; s++ {
					acc[r*gemmNR+s] = beta * crow[s]
				}
			}
		}
		return
	}
	for r := 0; r < mr; r++ {
		crow := cc[r*ldc:]
		for s := 0; s < nr; s++ {
			acc[r*gemmNR+s] = crow[s]
		}
	}
}

// storeAcc writes the valid mr×nr lanes of the tile back to C.
func storeAcc(cc []complex128, ldc, mr, nr int, acc *[gemmMR * gemmNR]complex128) {
	for r := 0; r < mr; r++ {
		crow := cc[r*ldc:]
		for s := 0; s < nr; s++ {
			crow[s] = acc[r*gemmNR+s]
		}
	}
}

// microKernelGo is the portable register tile: acc[r][s] accumulates
// sum_k ap[k·MR+r]·bp[k·NR+s] in ascending k, one accumulator per
// element — the same ordering as the assembly kernel and gemmStripe.
func microKernelGo(kc int, ap, bp []complex128, acc *[gemmMR * gemmNR]complex128) {
	ap = ap[: gemmMR*kc : gemmMR*kc]
	bp = bp[: gemmNR*kc : gemmNR*kc]
	for k := 0; k < kc; k++ {
		a0 := ap[gemmMR*k]
		a1 := ap[gemmMR*k+1]
		bk := bp[gemmNR*k : gemmNR*k+gemmNR]
		for s, bv := range bk {
			acc[s] += a0 * bv
			acc[gemmNR+s] += a1 * bv
		}
	}
}

// vecSubMulGo is the portable dst[j] -= l*src[j].
func vecSubMulGo(dst, src []complex128, l complex128) {
	for j, sv := range src[:len(dst)] {
		dst[j] -= l * sv
	}
}

// vecScaleGo is the portable dst[j] *= s.
func vecScaleGo(dst []complex128, s complex128) {
	for j := range dst {
		dst[j] *= s
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
