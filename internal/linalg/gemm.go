package linalg

import "sync/atomic"

// Op selects how an input operand enters a multiplication, mirroring the
// BLAS transpose flags that OMEN passes to cuBLAS (Table 7 uses NN/NT/TN/TT).
type Op int

const (
	// NoTrans uses the operand as stored.
	NoTrans Op = iota
	// Trans uses the operand transposed.
	Trans
	// ConjTrans uses the Hermitian conjugate of the operand.
	ConjTrans
)

func (o Op) String() string {
	switch o {
	case NoTrans:
		return "N"
	case Trans:
		return "T"
	case ConjTrans:
		return "C"
	}
	return "?"
}

// flopCount accumulates complex flops across linalg kernels when enabled.
var (
	flopCount   atomic.Int64
	flopEnabled atomic.Bool
)

// EnableFlopCounting toggles global flop accounting. It costs one atomic add
// per kernel call, so leave it off in production runs.
func EnableFlopCounting(on bool) { flopEnabled.Store(on) }

// Flops returns the accumulated real-flop count (1 complex multiply-add is
// counted as 8 real flops, matching the paper's §6.1.1 accounting).
func Flops() int64 { return flopCount.Load() }

// ResetFlops clears the accumulated flop count.
func ResetFlops() { flopCount.Store(0) }

func countFlops(n int64) {
	if flopEnabled.Load() {
		flopCount.Add(n)
	}
}

// GEMM computes C = alpha·op(A)·op(B) + beta·C in place.
//
// c must not overlap a or b (both kernels store partial sums into C while
// the operands are still being read; overlap would silently corrupt the
// result, so it panics instead). Transposed operands are consumed through
// pooled packing buffers — no per-call allocation.
//
// A GEMM is a leaf: at every size it runs on its caller's goroutine and
// spawns nothing. Parallelism lives in the loops over independent points,
// atoms and batches above it (ParallelFor), as in the paper, which batches
// its many small products rather than splitting one across cores.
func GEMM(alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix) {
	m, k := opDims(a, opA)
	k2, n := opDims(b, opB)
	if k != k2 || c.Rows != m || c.Cols != n {
		panicShape("GEMM", a, opA, b, opB)
	}
	checkNoAlias("GEMM", c, a, b)
	countFlops(8 * int64(m) * int64(n) * int64(k))
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		scaleInPlace(c, beta)
		return
	}
	gemmDispatch(alpha, a, opA, b, opB, beta, c, nil)
}

// The row-panel bounds: a product whose op(B) panel, k·n elements, is at
// most its level's bound (rowPanelMaxKN) runs on the unpacked row-panel
// kernel, whose zmm slices read the whole panel once per group of eight
// C rows (four or two in a block's last rows) and whose ymm and xmm
// slices read it once per pair; larger ones are packed. On the 2-vCPU
// AVX-512 Xeon of bench/README.md the zmm panel's median, when it still
// read the panel once per row pair, beat the AVX2 packed micro-kernel by
// ≥ 8 % on all four BenchmarkGEMM rows (NoTrans, Trans, ConjTrans and the
// RGF shape) up to n = 96 and tied three of them at 128
// (BenchmarkRowPanelVsPacked, 9–18 alternated runs); on the row groups
// it beats packing at 128 too. The ymm panel and the Go loops keep the
// 48×48 of the 2-vCPU AVX2 Xeon, where the row panel ran square products
// a fifth to a third faster than packing at n = 32–48 and tied or lost
// at 64 (internal/README.md, "Dense kernel layer", has the sweeps). A bound
// must not exceed gemmMC·gemmKC (checked below at compile time):
// gemmRowPanel packs op(A) in blocks of that many elements, at least one
// row each.
const (
	rowPanelMaxKNZMM    = 96 * 96
	rowPanelMaxKNNarrow = 48 * 48
)

const (
	_ = uint(gemmMC*gemmKC - rowPanelMaxKNZMM)
	_ = uint(gemmMC*gemmKC - rowPanelMaxKNNarrow)
)

// rowPanelMaxKN is the row-panel bound of the level smallBatch runs at.
func rowPanelMaxKN() int {
	if haveAVX512 {
		return rowPanelMaxKNZMM
	}
	return rowPanelMaxKNNarrow
}

// gemmDispatch routes one shape-checked GEMM (m, n, k ≥ 1) to a kernel: the
// row panel when op(B) is at most rowPanelMaxKN() elements, the bound of
// the level smallBatch runs at, the packed blocked kernel otherwise. ws,
// when non-nil, donates the buffers (workspace-pooled hot path); otherwise
// they come from packPool. Shared by the allocating GEMM and
// Workspace.GEMM.
func gemmDispatch(alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix, ws *Workspace) {
	var pb *packBuf
	if ws != nil {
		pb = &ws.pack
	} else {
		pb = packPool.Get().(*packBuf)
	}
	_, k := opDims(a, opA)
	if k*c.Cols <= rowPanelMaxKN() {
		gemmRowPanel(alpha, a, opA, b, opB, beta, c, pb)
	} else {
		gemmBlocked(alpha, a, opA, b, opB, beta, c, pb)
	}
	if ws == nil {
		packPool.Put(pb)
	}
}

// gemmRowPanel computes C = alpha·op(A)·op(B) + beta·C on the row-panel
// kernel of SmallBatch, a batch of one. alpha·op(A), in row blocks no
// larger than the packed kernel's MC×KC block, and a transposed op(B) are
// written row-major into pb; C is scaled by beta up front and never read
// when beta is 0; then every C element adds its products in ascending k
// with none skipped. Those are the packed kernel's alpha·a products,
// beta·c start and accumulation order, so the two agree bit for bit.
func gemmRowPanel(alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix, pb *packBuf) {
	m, n := c.Rows, c.Cols
	_, k := opDims(a, opA)
	rows := gemmMC * gemmKC / k // ≥ 1, as k ≤ rowPanelMaxKN() ≤ gemmMC·gemmKC
	bp := b.Data
	if opB == NoTrans {
		pb.ensure(min(m, rows)*k, 0)
	} else {
		pb.ensure(min(m, rows)*k, k*n)
		bt := Matrix{Rows: k, Cols: n, Data: pb.b[:k*n]}
		if opB == Trans {
			tInto(&bt, b)
		} else {
			HInto(&bt, b)
		}
		bp = bt.Data
	}
	mode := 0
	if beta != 0 {
		mode = rowFromC
		if beta != 1 {
			vecScale(c.Data, beta)
		}
	}
	for i0 := 0; i0 < m; i0 += rows {
		mc := min(rows, m-i0)
		packRowsA(pb.a, alpha, a, opA, i0, mc)
		smallBatch(c.Data[i0*n:], pb.a, bp, mc, n, k, 1, 0, 0, mode)
	}
}

// scaleInPlace applies C = beta·C, the k == 0 degenerate GEMM.
func scaleInPlace(c *Matrix, beta complex128) {
	if beta == 1 {
		return
	}
	if beta == 0 {
		c.Zero()
		return
	}
	for i := range c.Data {
		c.Data[i] *= beta
	}
}

// Mul3 returns a·b·c, association chosen to minimize work.
func Mul3(a, b, c *Matrix) *Matrix {
	// Cost of (ab)c vs a(bc) in complex multiply-adds.
	left := int64(a.Rows)*int64(a.Cols)*int64(b.Cols) + int64(a.Rows)*int64(b.Cols)*int64(c.Cols)
	right := int64(b.Rows)*int64(b.Cols)*int64(c.Cols) + int64(a.Rows)*int64(a.Cols)*int64(c.Cols)
	if left <= right {
		return mul(mul(a, b), c)
	}
	return mul(a, mul(b, c))
}

// mul returns a·b in a new matrix.
func mul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	GEMM(1, a, NoTrans, b, NoTrans, 0, c)
	return c
}

func opDims(m *Matrix, op Op) (rows, cols int) {
	if op == NoTrans {
		return m.Rows, m.Cols
	}
	return m.Cols, m.Rows
}

func panicShape(fn string, a *Matrix, opA Op, b *Matrix, opB Op) {
	panic("linalg: " + fn + " incompatible shapes " +
		shapeString(a, opA) + " x " + shapeString(b, opB))
}

func shapeString(m *Matrix, op Op) string {
	r, c := opDims(m, op)
	return op.String() + "(" + itoa(r) + "x" + itoa(c) + ")"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
