package linalg

import (
	"math/cmplx"
	"sync"
)

// Panel packing for the blocked GEMM kernel. op(A) and op(B) are copied
// into contiguous micro-panel layouts once per cache block, so the micro-
// kernel streams both operands with unit stride regardless of the operand
// orientation — Trans/ConjTrans cost a strided read during packing instead
// of a materialized transpose (the pre-blocked GEMM allocated b.T()/b.H()
// per call). alpha is folded into the packed A panel, which reproduces the
// reference kernel's av = alpha·a[i][k] products bit for bit.
//
// Layouts (complex128 elements):
//
//	A panel: micro-panels of gemmMR rows, k-major within a panel:
//	         ap[it·kc + k·MR + r] = alpha·op(A)[i0+it+r][p0+k]
//	B panel: micro-panels of gemmNR columns, k-major within a panel:
//	         bp[jt·kc + k·NR + s] = op(B)[p0+k][j0+jt+s]
//
// Rows/columns past the block edge are zero-padded: the padded lanes feed
// accumulators that are never stored, so padding wastes a few flops on
// edge tiles but cannot change any stored bit.

// packBuf holds the packed panels of one GEMM invocation, or the row-major
// alpha·op(A) block and transposed op(B) of a row-panel one. Buffers grow
// to the high-water size of the problems they have served — at most one
// cache block each — and are reused via packPool (allocating callers) or a
// Workspace (hot solver paths).
type packBuf struct {
	a, b []complex128
}

var packPool = sync.Pool{New: func() any { return new(packBuf) }}

func (pb *packBuf) ensure(aLen, bLen int) {
	if cap(pb.a) < aLen {
		pb.a = make([]complex128, aLen)
	}
	pb.a = pb.a[:cap(pb.a)]
	if cap(pb.b) < bLen {
		pb.b = make([]complex128, bLen)
	}
	pb.b = pb.b[:cap(pb.b)]
}

// packA packs alpha·op(A)[i0:i0+mc, p0:p0+kc] into ap micro-panels.
func packA(ap []complex128, alpha complex128, a *Matrix, opA Op, i0, mc, p0, kc int) {
	for it := 0; it < mc; it += gemmMR {
		dst := ap[it*kc:]
		rows := mc - it
		if rows > gemmMR {
			rows = gemmMR
		}
		switch opA {
		case NoTrans:
			for r := 0; r < rows; r++ {
				row := a.Data[(i0+it+r)*a.Cols+p0:]
				for k := 0; k < kc; k++ {
					dst[k*gemmMR+r] = alpha * row[k]
				}
			}
		case Trans:
			for k := 0; k < kc; k++ {
				row := a.Data[(p0+k)*a.Cols+i0+it:]
				for r := 0; r < rows; r++ {
					dst[k*gemmMR+r] = alpha * row[r]
				}
			}
		case ConjTrans:
			for k := 0; k < kc; k++ {
				row := a.Data[(p0+k)*a.Cols+i0+it:]
				for r := 0; r < rows; r++ {
					dst[k*gemmMR+r] = alpha * cmplx.Conj(row[r])
				}
			}
		}
		// Zero-pad the missing rows of an edge micro-panel.
		for r := rows; r < gemmMR; r++ {
			for k := 0; k < kc; k++ {
				dst[k*gemmMR+r] = 0
			}
		}
	}
}

// packB packs op(B)[p0:p0+kc, j0:j0+nc] into bp micro-panels.
func packB(bp []complex128, b *Matrix, opB Op, p0, kc, j0, nc int) {
	for jt := 0; jt < nc; jt += gemmNR {
		dst := bp[jt*kc:]
		cols := nc - jt
		if cols > gemmNR {
			cols = gemmNR
		}
		switch opB {
		case NoTrans:
			for k := 0; k < kc; k++ {
				row := b.Data[(p0+k)*b.Cols+j0+jt:]
				for s := 0; s < cols; s++ {
					dst[k*gemmNR+s] = row[s]
				}
			}
		case Trans:
			for s := 0; s < cols; s++ {
				row := b.Data[(j0+jt+s)*b.Cols+p0:]
				for k := 0; k < kc; k++ {
					dst[k*gemmNR+s] = row[k]
				}
			}
		case ConjTrans:
			for s := 0; s < cols; s++ {
				row := b.Data[(j0+jt+s)*b.Cols+p0:]
				for k := 0; k < kc; k++ {
					dst[k*gemmNR+s] = cmplx.Conj(row[k])
				}
			}
		}
		for s := cols; s < gemmNR; s++ {
			for k := 0; k < kc; k++ {
				dst[k*gemmNR+s] = 0
			}
		}
	}
}

// packRowsA writes alpha·op(A)[i0:i0+mc, :] row-major into ap (mc×k, the
// row-panel kernel's layout): op(A)'s rows, then one vecScale by alpha —
// packA's alpha·a products, the two factors of each real multiply swapped,
// which IEEE rounding does not see.
func packRowsA(ap []complex128, alpha complex128, a *Matrix, opA Op, i0, mc int) {
	switch opA {
	case NoTrans:
		k := a.Cols
		ap = ap[:copy(ap, a.Data[i0*k:(i0+mc)*k])]
	case Trans, ConjTrans:
		k := a.Rows
		ap = ap[:mc*k]
		for p := 0; p < k; p++ {
			row := a.Data[p*a.Cols+i0 : p*a.Cols+i0+mc]
			if opA == ConjTrans {
				for r, v := range row {
					ap[r*k+p] = cmplx.Conj(v)
				}
			} else {
				for r, v := range row {
					ap[r*k+p] = v
				}
			}
		}
	}
	vecScale(ap, alpha)
}
