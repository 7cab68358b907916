package linalg

// Slice kernels of the SSE tile (internal/sse): plain []complex128 streams
// with no Matrix header, dispatched to AVX-512 or AVX2 assembly on capable
// amd64 hosts and to the portable loops below elsewhere. Every path rounds
// each complex multiply-add exactly as Go's scalar lowering (four
// multiplies, one add/sub pair, one add; no FMA), so results are bitwise
// identical across them — vec_test.go pins it at every level.

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

// VecAddMul3x2 is the SSE ω-stencil's six AXPYs over one pair of source
// rows in one pass: for j in [0, 3), dst[j][k] += c[j]·pl[k] and
// dst[3+j][k] += c[3+j]·pg[k] over k in [0, len(pl)), every element
// rounded as VecAddMul rounds it. Direction j — rows j and 3+j — is left
// untouched when c[j] and c[3+j] are both zero, so a −0 in its rows, or
// an Inf or NaN in the sources facing it, survives. Every row is as long
// as the sources, and the six rows overlap neither each other nor the
// sources.
func VecAddMul3x2(dst *[6][]complex128, pl, pg []complex128, c *[6]complex128) {
	if len(pg) != len(pl) {
		panic("linalg: VecAddMul3x2 sources of length " + itoa(len(pl)) + " and " + itoa(len(pg)))
	}
	for r, d := range dst {
		if len(d) != len(pl) {
			panic("linalg: VecAddMul3x2 row " + itoa(r) + " of length " + itoa(len(d)) + ", sources of " + itoa(len(pl)))
		}
	}
	vecAddMul3x2(dst, pl, pg, c)
}

// vecAddMul3x2Rows runs VecAddMul3x2 from element from on as one
// vecAddMul call per row it writes: the ymm and Go levels, the zmm body's
// tail and a call that skips a direction. The rows are disjoint, so the
// order of the calls cannot show.
func vecAddMul3x2Rows(dst *[6][]complex128, pl, pg []complex128, c *[6]complex128, from int) {
	for j := 0; j < 3; j++ {
		if c[j] == 0 && c[3+j] == 0 {
			continue
		}
		vecAddMul(dst[j][from:], pl[from:], c[j])
		vecAddMul(dst[3+j][from:], pg[from:], c[3+j])
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

// SmallBatch multiplies a strided batch of n×n row-major blocks, the SBSMM
// of the SSE tile: for t in [0, count), C[t] = A[t]·B[t] with A[t] starting
// t·aStride elements into a, B[t] t·bStride elements into b and C[t] t·n²
// elements into c. A stride of 0 shares one block across the batch. Row i
// of C[t] is formed in row-panel order (smallBatchGo, the kernel GEMM runs
// its small products on): it starts from +0, or from its current value when
// acc is set, and adds a_ip·row_p(B[t]) for ascending p. The two modes are
// two rounding contracts. Without acc every product is added, the sequence
// of GEMM(1, A, B, 0, C). With acc, a product whose a_ip is zero is
// skipped, so a −0 in C or an Inf or NaN in B facing a zero of A survives.
// C must not overlap A or B.
func SmallBatch(c, a, b []complex128, n, count, aStride, bStride int, acc bool) {
	bl := n * n
	if n < 0 || count < 0 || aStride < 0 || bStride < 0 || len(c) < count*bl ||
		count > 0 && (len(a) < (count-1)*aStride+bl || len(b) < (count-1)*bStride+bl) {
		panic("linalg: SmallBatch operands shorter than n=" + itoa(n) + " count=" + itoa(count) +
			" strides " + itoa(aStride) + "/" + itoa(bStride))
	}
	if n == 0 || count == 0 {
		return
	}
	mode := 0
	if acc {
		mode = rowFromC | rowSkipZero
	}
	smallBatch(c, a, b, n, n, n, count, aStride, bStride, mode)
}

// Mode bits of the row-panel kernel. SmallBatch overwrites with neither and
// accumulates with both; GEMM runs rowFromC alone when beta ≠ 0.
const (
	// rowFromC starts each row of C[t] from its current value, not from +0.
	rowFromC = 1 << iota
	// rowSkipZero skips a product whose a_ip is ±0.
	rowSkipZero
)

// smallBatchGo is the portable row-panel kernel behind SmallBatch and the
// small GEMMs: for t in [0, count), C[t] = A[t]·B[t] with the m×k block A[t]
// starting t·aStride elements into a, the k×n block B[t] t·bStride elements
// into b and the m×n block C[t] t·m·n elements into c, all row-major. Row i
// of C[t] starts from +0, or from its current value under rowFromC, and
// adds a_ip·row_p(B[t]) for ascending p, skipping a_ip = ±0 under
// rowSkipZero.
func smallBatchGo(c, a, b []complex128, m, n, k, count, aStride, bStride, mode int) {
	la, lb, lc := m*k, k*n, m*n
	for t := 0; t < count; t++ {
		at := a[t*aStride : t*aStride+la : t*aStride+la]
		bt := b[t*bStride : t*bStride+lb : t*bStride+lb]
		for i := 0; i < m; i++ {
			crow := c[t*lc+i*n : t*lc+(i+1)*n : t*lc+(i+1)*n]
			if mode&rowFromC == 0 {
				clear(crow)
			}
			for p, av := range at[i*k : (i+1)*k] {
				if mode&rowSkipZero != 0 && av == 0 {
					continue
				}
				brow := bt[p*n : (p+1)*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
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
