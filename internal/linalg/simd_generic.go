//go:build !amd64

package linalg

// haveAVX2 gates the assembly micro-kernel; always false off amd64.
const haveAVX2 = false

// microKernel runs one packed 2×8 register tile (see gemm_blocked.go).
func microKernel(kc int, ap, bp []complex128, acc *[gemmMR * gemmNR]complex128) {
	microKernelGo(kc, ap, bp, acc)
}

// vecSubMul computes dst[j] -= l*src[j].
func vecSubMul(dst, src []complex128, l complex128) { vecSubMulGo(dst, src, l) }

// vecScale computes dst[j] *= s.
func vecScale(dst []complex128, s complex128) { vecScaleGo(dst, s) }

// vecAddMul computes dst[j] += s*src[j].
func vecAddMul(dst, src []complex128, s complex128) { vecAddMulGo(dst, src, s) }

// sumMul3x4 runs SumMul3x4's shape-checked body.
func sumMul3x4(acc *[12]complex128, x0, x1, x2, y []complex128, k, n int) {
	sumMul3x4Go(acc, x0, x1, x2, y, k, n)
}

// smallBatch runs the row-panel kernel smallBatchGo describes.
func smallBatch(c, a, b []complex128, m, n, k, count, aStride, bStride, mode int) {
	smallBatchGo(c, a, b, m, n, k, count, aStride, bStride, mode)
}
