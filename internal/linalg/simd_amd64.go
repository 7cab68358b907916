//go:build amd64

package linalg

// AVX2 micro-kernel plumbing. Detection is done once at init: AVX2 in
// CPUID leaf 7, plus OSXSAVE/XGETBV confirming the OS preserves ymm
// state. No FMA requirement — the kernel deliberately avoids fused
// operations to keep bit-identity with the scalar reference.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

//go:noescape
func microKernelAVX2(kc int, ap, bp, acc *complex128)

var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// microKernel runs one packed 2×8 register tile (see gemm_blocked.go).
func microKernel(kc int, ap, bp []complex128, acc *[gemmMR * gemmNR]complex128) {
	if haveAVX2 {
		microKernelAVX2(kc, &ap[0], &bp[0], &acc[0])
		return
	}
	microKernelGo(kc, ap, bp, acc)
}

//go:noescape
func vecSubMulAVX2(dst, src *complex128, n int, l complex128)

//go:noescape
func vecScaleAVX2(dst *complex128, n int, s complex128)

// vecSubMul computes dst[j] -= l*src[j]. Rounding matches the scalar
// expression exactly (no FMA), so LU substitution stays bit-identical
// across the assembly and portable paths.
func vecSubMul(dst, src []complex128, l complex128) {
	n := len(dst)
	if haveAVX2 && n >= 2 {
		even := n &^ 1
		vecSubMulAVX2(&dst[0], &src[0], even, l)
		if even < n {
			dst[even] -= l * src[even]
		}
		return
	}
	vecSubMulGo(dst, src, l)
}

// vecScale computes dst[j] *= s with scalar-identical rounding.
func vecScale(dst []complex128, s complex128) {
	n := len(dst)
	if haveAVX2 && n >= 2 {
		even := n &^ 1
		vecScaleAVX2(&dst[0], even, s)
		if even < n {
			dst[even] *= s
		}
		return
	}
	vecScaleGo(dst, s)
}

//go:noescape
func vecAddMulAVX2(dst, src *complex128, n int, s complex128)

// vecAddMul computes dst[j] += s*src[j] with scalar-identical rounding.
func vecAddMul(dst, src []complex128, s complex128) {
	n := len(dst)
	if haveAVX2 && n >= 2 {
		even := n &^ 1
		vecAddMulAVX2(&dst[0], &src[0], even, s)
		if even < n {
			dst[even] += s * src[even]
		}
		return
	}
	vecAddMulGo(dst, src, s)
}

//go:noescape
func sumMul3x4AVX2(acc, x0, x1, x2, y *complex128, k, n int)

// sumMul3x4 runs SumMul3x4's shape-checked body.
func sumMul3x4(acc *[12]complex128, x0, x1, x2, y []complex128, k, n int) {
	if haveAVX2 && k > 0 && n > 0 {
		sumMul3x4AVX2(&acc[0], &x0[0], &x1[0], &x2[0], &y[0], k, n)
		return
	}
	sumMul3x4Go(acc, x0, x1, x2, y, k, n)
}

//go:noescape
func smallBatchAVX2(c, a, b *complex128, m, n, k, count, aStride, bStride, mode int)

// smallBatch runs the row-panel kernel smallBatchGo describes
// (m, n, k, count ≥ 1).
func smallBatch(c, a, b []complex128, m, n, k, count, aStride, bStride, mode int) {
	if haveAVX2 {
		smallBatchAVX2(&c[0], &a[0], &b[0], m, n, k, count, aStride, bStride, mode)
		return
	}
	smallBatchGo(c, a, b, m, n, k, count, aStride, bStride, mode)
}
