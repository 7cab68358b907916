//go:build amd64

package linalg

// SIMD kernel plumbing. Detection is done once at init: AVX2 in CPUID
// leaf 7, plus OSXSAVE/XGETBV confirming the OS preserves ymm state; then
// AVX-512F on top, with XGETBV confirming the OS also preserves the opmask
// and all zmm state. No FMA requirement — every kernel deliberately avoids
// fused operations to keep bit-identity with the scalar reference. The
// slice kernels dispatch zmm, then ymm, then xmm, then scalar; the packed
// GEMM micro-kernel stays AVX2.

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

//go:noescape
func microKernelAVX2(kc int, ap, bp, acc *complex128)

var haveAVX2 = detectAVX2()

var haveAVX512 = haveAVX2 && detectAVX512()

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

// detectAVX512 reports AVX-512F with the OS saving the opmask registers,
// the upper halves of zmm0–15 and zmm16–31 (XCR0 bits 5–7) besides XMM
// and YMM state. Call it only once detectAVX2 holds.
func detectAVX512() bool {
	xcr0, _ := xgetbv0()
	if xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return ebx7&avx512f != 0
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
func vecSubMulAVX512(dst, src *complex128, n int, l complex128)

//go:noescape
func vecSubMulAVX2(dst, src *complex128, n int, l complex128)

//go:noescape
func vecScaleAVX512(dst *complex128, n int, s complex128)

//go:noescape
func vecScaleAVX2(dst *complex128, n int, s complex128)

// vecSubMul computes dst[j] -= l*src[j]. Rounding matches the scalar
// expression exactly (no FMA), so LU substitution stays bit-identical
// across the assembly and portable paths: whole zmm first, then a ymm
// pair, then one scalar.
func vecSubMul(dst, src []complex128, l complex128) {
	if haveAVX512 && len(dst) >= 4 {
		q := len(dst) &^ 3
		vecSubMulAVX512(&dst[0], &src[0], q, l)
		dst, src = dst[q:], src[q:]
	}
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

// vecScale computes dst[j] *= s with scalar-identical rounding, zmm, then
// ymm, then scalar as vecSubMul.
func vecScale(dst []complex128, s complex128) {
	if haveAVX512 && len(dst) >= 4 {
		q := len(dst) &^ 3
		vecScaleAVX512(&dst[0], q, s)
		dst = dst[q:]
	}
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
func vecAddMulAVX512(dst, src *complex128, n int, s complex128)

//go:noescape
func vecAddMulAVX2(dst, src *complex128, n int, s complex128)

// vecAddMul computes dst[j] += s*src[j] with scalar-identical rounding:
// whole zmm (four complex) first, then a ymm pair, then one scalar.
func vecAddMul(dst, src []complex128, s complex128) {
	if haveAVX512 && len(dst) >= 4 {
		q := len(dst) &^ 3
		vecAddMulAVX512(&dst[0], &src[0], q, s)
		dst, src = dst[q:], src[q:]
	}
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
func vecAddMul3x2AVX512(dst *[6][]complex128, pl, pg *complex128, n int, c *[6]complex128)

// vecAddMul3x2 runs VecAddMul3x2's shape-checked body: on AVX-512 one zmm
// pass over both sources for the whole vectors, each row rounded by
// vecAddMulAVX512's sequence, then the tail of every row through
// vecAddMul. A call that skips a direction, and the ymm and Go levels, go
// through vecAddMul row by row.
func vecAddMul3x2(dst *[6][]complex128, pl, pg []complex128, c *[6]complex128) {
	q := len(pl) &^ 3
	if !haveAVX512 || q == 0 || c[0] == 0 && c[3] == 0 || c[1] == 0 && c[4] == 0 || c[2] == 0 && c[5] == 0 {
		vecAddMul3x2Rows(dst, pl, pg, c, 0)
		return
	}
	vecAddMul3x2AVX512(dst, &pl[0], &pg[0], q, c)
	if q < len(pl) {
		vecAddMul3x2Rows(dst, pl, pg, c, q)
	}
}

//go:noescape
func sumMul3x4AVX512(acc, x0, x1, x2, y *complex128, k, n int)

//go:noescape
func sumMul3x4AVX2(acc, x0, x1, x2, y *complex128, k, n int)

// sumMul3x4 runs SumMul3x4's shape-checked body.
func sumMul3x4(acc *[12]complex128, x0, x1, x2, y []complex128, k, n int) {
	switch {
	case haveAVX512 && k > 0 && n > 0:
		sumMul3x4AVX512(&acc[0], &x0[0], &x1[0], &x2[0], &y[0], k, n)
	case haveAVX2 && k > 0 && n > 0:
		sumMul3x4AVX2(&acc[0], &x0[0], &x1[0], &x2[0], &y[0], k, n)
	default:
		sumMul3x4Go(acc, x0, x1, x2, y, k, n)
	}
}

// rowZMM, a mode bit of smallBatchAsm only, runs every column in zmm
// slices of four complex, the last one masked, over row groups of up to
// eight, in place of the ymm and xmm slices over row pairs. Set it on
// AVX-512 hosts alone: elsewhere the zmm instructions fault.
const rowZMM = rowSkipZero << 1

//go:noescape
func smallBatchAsm(c, a, b *complex128, m, n, k, count, aStride, bStride, mode int)

// smallBatch runs the row-panel kernel smallBatchGo describes
// (m, n, k, count ≥ 1). Rows shorter than one zmm run the ymm and xmm
// slices.
func smallBatch(c, a, b []complex128, m, n, k, count, aStride, bStride, mode int) {
	switch {
	case haveAVX512 && n >= 4:
		smallBatchAsm(&c[0], &a[0], &b[0], m, n, k, count, aStride, bStride, mode|rowZMM)
	case haveAVX2:
		smallBatchAsm(&c[0], &a[0], &b[0], m, n, k, count, aStride, bStride, mode)
	default:
		smallBatchGo(c, a, b, m, n, k, count, aStride, bStride, mode)
	}
}
