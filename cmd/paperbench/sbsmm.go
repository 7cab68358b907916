package main

import "repro/internal/linalg"

// Table 9's two fp64 batched kernels: SBSMM on the exact n×n sizes and
// the vendor-library baseline that pads them. (The fp16 row is
// batch.SBSMMHalf.)

// padSize is the tile edge the padded baseline rounds matrix dimensions up
// to, mirroring the 16×16 padding the paper observes in cuBLAS and requires
// for Tensor Cores.
const padSize = 16

// sbsmm computes C[t] += A[t]·B[t] for t in [0, count): a strided batch of
// n×n complex multiplications. The three buffers hold count matrices of
// n*n elements each, contiguously ("constant stride" layout from Fig. 6).
// Each row of C[t] adds a_ik·row_k(B[t]) for ascending k, skipping an a_ik
// of zero (linalg.SmallBatch's accumulate contract). The batch is split
// by linalg.ForChunks, as batch.SBSMMHalf's is, so the three Table 9
// kernels run on the same fan-out.
func sbsmm(c, a, b []complex128, n, count int) {
	checkBatch("sbsmm", c, a, b, n, count)
	stride := n * n
	linalg.ForChunks(count, func(lo, hi int) {
		linalg.SmallBatch(c[lo*stride:hi*stride], a[lo*stride:hi*stride], b[lo*stride:hi*stride], n, hi-lo, stride, stride, true)
	})
}

// sbsmmPadded is the vendor-library baseline: each n×n operand is copied
// into a padSize×padSize zero-padded tile and the padded product is
// computed in full, exactly as a batched GEMM tuned for large tiles would.
// The useful result is then extracted. Useful flops are 8n³ per batch
// element while executed flops are 8·padSize³ — the 6% useful-ops ratio
// reported in Table 9 for n=12.
func sbsmmPadded(c, a, b []complex128, n, count int) {
	checkBatch("sbsmmPadded", c, a, b, n, count)
	if n > padSize {
		panic("paperbench: sbsmmPadded requires n <= padSize")
	}
	linalg.ForChunks(count, func(lo, hi int) {
		const p = padSize
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

// paddedFlops returns the flops the padded baseline actually executes.
func paddedFlops(count int) int64 {
	return 8 * int64(padSize) * int64(padSize) * int64(padSize) * int64(count)
}

func checkBatch(fn string, c, a, b []complex128, n, count int) {
	want := n * n * count
	if len(a) != want || len(b) != want || len(c) != want {
		panic("paperbench: " + fn + " buffer length mismatch")
	}
}
