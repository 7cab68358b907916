package linalg

// Slice kernels of the SSE tile (internal/sse): plain []complex128 streams
// with no Matrix header, dispatched to AVX2 assembly on capable amd64 hosts
// and to the portable loops below elsewhere. Both paths round every complex
// multiply-add exactly as Go's scalar lowering (four multiplies, one
// add/sub pair, one add; no FMA), so results are bitwise identical across
// them — vec_test.go pins it.

// VecAddMul computes dst[k] += s·src[k] over two equal-length slices — the
// long constant-stride stream the SSE ω-stencil is made of. Because the
// rounding is that of the scalar expression, dst −= (−s)·src is no
// substitute: signed zeros would differ.
func VecAddMul(dst, src []complex128, s complex128) {
	if len(dst) != len(src) {
		panic("linalg: VecAddMul length mismatch " + itoa(len(dst)) + " vs " + itoa(len(src)))
	}
	vecAddMul(dst, src, s)
}

// vecAddMulGo is the portable dst[j] += s*src[j].
func vecAddMulGo(dst, src []complex128, s complex128) {
	for j, sv := range src[:len(dst)] {
		dst[j] += s * sv
	}
}

// SumMul3x4 accumulates a batch of n small products, each rounded on its
// own: for step e in [0, n), T = X(e)·Y(e) where X(e) is the 3×k matrix
// with rows x0[e·k:], x1[e·k:], x2[e·k:] and Y(e) the k×4 row-major block
// y[e·k·4:]; every T element is summed over ascending k from zero, then
// acc[i*4+j] += T[i][j]. This is the SSE Π≷ contraction: with the right
// operands stored transposed and interleaved by direction, the nine traces
// tr(X_i·Y_j) of one energy are one such step (the fourth column is
// padding), and each accumulator sees the partials in energy order.
func SumMul3x4(acc *[12]complex128, x0, x1, x2, y []complex128, k, n int) {
	if k < 0 || n < 0 || len(x0) < k*n || len(x1) < k*n || len(x2) < k*n || len(y) < 4*k*n {
		panic("linalg: SumMul3x4 operands shorter than k=" + itoa(k) + " n=" + itoa(n))
	}
	sumMul3x4(acc, x0, x1, x2, y, k, n)
}

// sumMul3x4Go is the portable SumMul3x4.
func sumMul3x4Go(acc *[12]complex128, x0, x1, x2, y []complex128, k, n int) {
	for e := 0; e < n; e++ {
		var t [12]complex128
		for p := e * k; p < (e+1)*k; p++ {
			yp := y[4*p : 4*p+4 : 4*p+4]
			for i, xv := range [3]complex128{x0[p], x1[p], x2[p]} {
				t[4*i] += xv * yp[0]
				t[4*i+1] += xv * yp[1]
				t[4*i+2] += xv * yp[2]
				t[4*i+3] += xv * yp[3]
			}
		}
		for i, tv := range t {
			acc[i] += tv
		}
	}
}
