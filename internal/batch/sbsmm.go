// Package batch implements SBSMM — the strided-batched small-scale matrix
// multiplication kernel the paper derives from the SSE dataflow (§5.3,
// Fig. 6 step ❸ and Table 9).
//
// The SSE self-energies accumulate products of Norb×Norb matrices (Norb is
// 10–25). Vendor batched-GEMM libraries pad such tiny operands to tile
// sizes tuned for large problems, so only ~6% of the executed flops are
// useful. SBSMM multiplies the exact sizes: SBSMMFixedA and SBSMMFixedB,
// the SSE tile's two shapes, are shape-checked callers of
// linalg.SmallBatch, one strided-batch kernel (AVX-512 or AVX2 on capable
// amd64 hosts, a portable loop elsewhere, bitwise equal) that vectorises
// each output row across its columns. A half-precision variant models the
// Tensor-Core path (fp16 inputs with normalization, fp64 accumulation).
// The padded vendor-style baseline of Table 9 is cmd/paperbench's.
package batch

import (
	"repro/internal/half"
	"repro/internal/linalg"
)

// UsefulFlops returns the algorithmically necessary flops of a batch.
func UsefulFlops(n, count int) int64 { return 8 * int64(n) * int64(n) * int64(n) * int64(count) }

// HalfBatch is a batch of matrices held in normalized split-complex fp16,
// the Tensor-Core input format from §5.4.
type HalfBatch struct {
	N, Count int
	buf      *half.SplitComplex
	scale    float64 // values were multiplied by scale before quantization
}

// EncodeHalf quantizes a strided batch into fp16 with a dynamic
// normalization factor derived from the batch magnitude ("we observe that
// the dynamic range of the inputs ... and compute factors based on their
// magnitudes").
func EncodeHalf(a []complex128, n, count int) *HalfBatch {
	if len(a) != n*n*count {
		panic("batch: EncodeHalf length mismatch")
	}
	scale, _ := half.ScaleFor(half.MaxAbsComplex(a)) // 1 where a cannot be normalized
	buf := half.NewSplitComplex(len(a))
	buf.EncodeScaled(a, scale)
	return &HalfBatch{N: n, Count: count, buf: buf, scale: scale}
}

// SBSMMHalf computes C[t] += A[t]·B[t] where the inputs are fp16-quantized
// batches. Products of the decoded fp16 values are accumulated in float64
// ("minimize the difference over accumulation, done in double-precision")
// and the combined normalization is inverted algebraically on the way out.
func SBSMMHalf(c []complex128, a, b *HalfBatch) {
	if a.N != b.N || a.Count != b.Count {
		panic("batch: SBSMMHalf operand mismatch")
	}
	n, count := a.N, a.Count
	if len(c) != n*n*count {
		panic("batch: SBSMMHalf output length mismatch")
	}
	inv := 1 / (a.scale * b.scale)
	linalg.ForChunks(count, func(lo, hi int) {
		stride := n * n
		are, aim := a.buf.Re, a.buf.Im
		bre, bim := b.buf.Re, b.buf.Im
		for t := lo; t < hi; t++ {
			base := t * stride
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var sre, sim float64
					for k := 0; k < n; k++ {
						ar := are[base+i*n+k].Float64()
						ai := aim[base+i*n+k].Float64()
						br := bre[base+k*n+j].Float64()
						bi := bim[base+k*n+j].Float64()
						sre += ar*br - ai*bi
						sim += ar*bi + ai*br
					}
					c[base+i*n+j] += complex(sre*inv, sim*inv)
				}
			}
		}
	})
}

// SBSMMFixedB computes C[t] += A[t]·B for t in [0, count) where B is a
// single fixed n×n matrix shared by the whole batch: each row of C[t] adds
// a_ik·row_k(B) for ascending k, skipping an a_ik of zero
// (linalg.SmallBatch's accumulate contract). This is the SSE stage-❸
// shape: the energy-batched transients multiply the same ∇jH coupling
// block. Sequential; callers parallelize at the atom level.
func SBSMMFixedB(c, a []complex128, b []complex128, n, count int) {
	want := n * n * count
	if len(a) != want || len(c) != want || len(b) != n*n {
		panic("batch: SBSMMFixedB buffer length mismatch")
	}
	linalg.SmallBatch(c, a, b, n, count, n*n, 0, true)
}

// SBSMMFixedA computes C[t] = A·B[t] for t in [0, count) where A is a
// single fixed n×n left operand and B[t] starts bStride elements after
// B[t−1]. This is the SSE stage-❶ shape: one ∇H coupling block multiplies
// the G≷ blocks of one atom along the energy axis, which the
// [kz, E, atom] tensor layout spaces Na·n² apart. C is dense (stride n²)
// and overwritten. Every element accumulates its n products in ascending
// order from +0 with no zero skip, the rounding sequence of
// linalg.GEMM(1, A, B[t], 0, C[t]) for finite A: GEMM's 1·A differs from A
// only in the signs of zeros, which a sum that starts at +0 cannot observe.
// Sequential; callers parallelize at the atom level.
func SBSMMFixedA(c, a, b []complex128, n, count, bStride int) {
	stride := n * n
	if len(a) != stride || len(c) != stride*count || (count > 0 && len(b) < (count-1)*bStride+stride) {
		panic("batch: SBSMMFixedA buffer length mismatch")
	}
	linalg.SmallBatch(c, a, b, n, count, 0, bStride, false)
}
