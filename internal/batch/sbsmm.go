// Package batch implements SBSMM — the strided-batched small-scale matrix
// multiplication kernel the paper derives from the SSE dataflow (§5.3,
// Fig. 6 step ❸ and Table 9).
//
// The SSE self-energies accumulate products of Norb×Norb matrices (Norb is
// 10–25). Vendor batched-GEMM libraries pad such tiny operands to tile
// sizes tuned for large problems, so only ~6% of the executed flops are
// useful. SBSMM multiplies the exact sizes with a register-blocked inner
// kernel; a "vendor-style" padded variant is provided as the baseline, and
// a half-precision variant models the Tensor-Core path (fp16 inputs with
// normalization, fp64 accumulation).
package batch

import (
	"runtime"

	"repro/internal/half"
	"repro/internal/linalg"
)

// PadSize is the tile edge the padded baseline rounds matrix dimensions up
// to, mirroring the 16×16 padding the paper observes in cuBLAS and requires
// for Tensor Cores.
const PadSize = 16

// SBSMM computes C[t] += A[t]·B[t] for t in [0, count): a strided batch of
// n×n complex multiplications. The three buffers hold count matrices of
// n*n elements each, contiguously ("constant stride" layout from Fig. 6).
// The batch is split across GOMAXPROCS goroutines.
func SBSMM(c, a, b []complex128, n, count int) {
	checkLen("SBSMM", c, a, b, n, count)
	forChunks(count, func(lo, hi int) {
		stride := n * n
		for t := lo; t < hi; t++ {
			mulAddSmall(c[t*stride:(t+1)*stride], a[t*stride:(t+1)*stride], b[t*stride:(t+1)*stride], n)
		}
	})
}

// SBSMMSeq is the single-goroutine version of SBSMM, used when the caller
// already parallelizes at an outer level (the SSE kernel parallelizes over
// energy-momentum pairs).
func SBSMMSeq(c, a, b []complex128, n, count int) {
	checkLen("SBSMMSeq", c, a, b, n, count)
	stride := n * n
	for t := 0; t < count; t++ {
		mulAddSmall(c[t*stride:(t+1)*stride], a[t*stride:(t+1)*stride], b[t*stride:(t+1)*stride], n)
	}
}

// mulAddSmall computes C += A·B for n×n row-major matrices, ikj order.
func mulAddSmall(c, a, b []complex128, n int) {
	for i := 0; i < n; i++ {
		crow := c[i*n : (i+1)*n : (i+1)*n]
		arow := a[i*n : (i+1)*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[k*n : (k+1)*n : (k+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// SBSMMPadded is the vendor-library baseline: each n×n operand is copied
// into a PadSize×PadSize zero-padded tile and the padded product is
// computed in full, exactly as a batched GEMM tuned for large tiles would.
// The useful result is then extracted. Useful flops are 8n³ per batch
// element while executed flops are 8·PadSize³ — the 6% useful-ops ratio
// reported in Table 9 for n=12.
func SBSMMPadded(c, a, b []complex128, n, count int) {
	checkLen("SBSMMPadded", c, a, b, n, count)
	if n > PadSize {
		panic("batch: SBSMMPadded requires n <= PadSize")
	}
	forChunks(count, func(lo, hi int) {
		const p = PadSize
		var pa, pb, pc [p * p]complex128
		stride := n * n
		for t := lo; t < hi; t++ {
			at := a[t*stride : (t+1)*stride]
			bt := b[t*stride : (t+1)*stride]
			for i := range pc {
				pa[i], pb[i], pc[i] = 0, 0, 0
			}
			for i := 0; i < n; i++ {
				copy(pa[i*p:i*p+n], at[i*n:(i+1)*n])
				copy(pb[i*p:i*p+n], bt[i*n:(i+1)*n])
			}
			// Full padded product — the wasted work is the point.
			for i := 0; i < p; i++ {
				crow := pc[i*p : (i+1)*p]
				arow := pa[i*p : (i+1)*p]
				for k, av := range arow {
					brow := pb[k*p : (k+1)*p]
					for j, bv := range brow {
						crow[j] += av * bv
					}
				}
			}
			ct := c[t*stride : (t+1)*stride]
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					ct[i*n+j] += pc[i*p+j]
				}
			}
		}
	})
}

// UsefulFlops returns the algorithmically necessary flops of a batch.
func UsefulFlops(n, count int) int64 { return 8 * int64(n) * int64(n) * int64(n) * int64(count) }

// PaddedFlops returns the flops the padded baseline actually executes.
func PaddedFlops(count int) int64 {
	return 8 * int64(PadSize) * int64(PadSize) * int64(PadSize) * int64(count)
}

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
	scale := half.ScaleFor(half.MaxAbsComplex(a))
	buf := half.NewSplitComplex(len(a))
	buf.EncodeScaled(a, scale)
	return &HalfBatch{N: n, Count: count, buf: buf, scale: scale}
}

// EncodeHalfUnnormalized quantizes without scaling — the ablation the paper
// uses in Fig. 7 to show that normalization is what preserves convergence.
func EncodeHalfUnnormalized(a []complex128, n, count int) *HalfBatch {
	if len(a) != n*n*count {
		panic("batch: EncodeHalfUnnormalized length mismatch")
	}
	buf := half.NewSplitComplex(len(a))
	buf.EncodeScaled(a, 1)
	return &HalfBatch{N: n, Count: count, buf: buf, scale: 1}
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
	forChunks(count, func(lo, hi int) {
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

func checkLen(fn string, c, a, b []complex128, n, count int) {
	want := n * n * count
	if len(a) != want || len(b) != want || len(c) != want {
		panic("batch: " + fn + " buffer length mismatch")
	}
}

// forChunks splits [0, count) into one contiguous chunk per CPU and runs
// f on each through linalg.ParallelFor; a batch too small to amortize the
// fan-out (fewer than four elements per CPU) runs as one chunk on the
// caller's goroutine.
func forChunks(count int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if count < 4*workers {
		f(0, count)
		return
	}
	chunk := (count + workers - 1) / workers
	linalg.ParallelFor((count+chunk-1)/chunk, workers, func() func(int) error {
		return func(w int) error {
			f(w*chunk, min((w+1)*chunk, count))
			return nil
		}
	})
}

// SBSMMFixedB computes C[t] += A[t]·B for t in [0, count) where B is a
// single fixed n×n matrix shared by the whole batch. This is the SSE
// stage-❸ shape: the energy-batched transients multiply the same ∇jH
// coupling block. Sequential; callers parallelize at the atom level.
func SBSMMFixedB(c, a []complex128, b []complex128, n, count int) {
	want := n * n * count
	if len(a) != want || len(c) != want || len(b) != n*n {
		panic("batch: SBSMMFixedB buffer length mismatch")
	}
	stride := n * n
	for t := 0; t < count; t++ {
		mulAddSmall(c[t*stride:(t+1)*stride], a[t*stride:(t+1)*stride], b, n)
	}
}

// SBSMMFixedA computes C[t] = A·B[t] for t in [0, count) where A is a
// single fixed n×n left operand and B[t] starts bStride elements after
// B[t−1]. This is the SSE stage-❶ shape: one ∇H coupling block multiplies
// the G≷ blocks of one atom along the energy axis, which the
// [kz, E, atom] tensor layout spaces Na·n² apart. C is dense (stride n²)
// and overwritten. Every element accumulates its n products in ascending
// order from +0, the rounding sequence of linalg.GEMM(1, A, B[t], 0, C[t])
// for finite A: GEMM's 1·A differs from A only in the signs of zeros, which
// a sum that starts at +0 cannot observe. Sequential; callers parallelize
// at the atom level.
func SBSMMFixedA(c, a, b []complex128, n, count, bStride int) {
	stride := n * n
	if len(a) != stride || len(c) != stride*count || (count > 0 && len(b) < (count-1)*bStride+stride) {
		panic("batch: SBSMMFixedA buffer length mismatch")
	}
	for t := 0; t < count; t++ {
		bt := b[t*bStride : t*bStride+stride : t*bStride+stride]
		ct := c[t*stride : (t+1)*stride : (t+1)*stride]
		for i := 0; i < n; i++ {
			crow := ct[i*n : (i+1)*n : (i+1)*n]
			for j := range crow {
				crow[j] = 0
			}
			for p, av := range a[i*n : (i+1)*n] {
				brow := bt[p*n : (p+1)*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}
