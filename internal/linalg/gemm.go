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

// MatMul computes C = op(A)·op(B), allocating the result.
func MatMul(a *Matrix, opA Op, b *Matrix, opB Op) *Matrix {
	m, k := opDims(a, opA)
	k2, n := opDims(b, opB)
	if k != k2 {
		panicShape("MatMul", a, opA, b, opB)
	}
	c := New(m, n)
	GEMM(1, a, opA, b, opB, 0, c)
	return c
}

// Mul is shorthand for MatMul(a, NoTrans, b, NoTrans).
func Mul(a, b *Matrix) *Matrix { return MatMul(a, NoTrans, b, NoTrans) }

// GEMM computes C = alpha·op(A)·op(B) + beta·C in place.
//
// c must not overlap a or b (the blocked kernel stores partial sums into C
// while the operands are still being read; overlap would silently corrupt
// the result, so it panics instead). Transposed operands are consumed
// through pooled packing buffers — no per-call materialization.
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

// gemmDispatch routes one shape-checked GEMM to a kernel: the unpacked
// gemmStripe reference for small NoTrans problems, the packed blocked
// kernel otherwise. ws, when non-nil, donates the packing buffers
// (workspace-pooled hot path); otherwise they come from packPool. Shared
// by the allocating GEMM and Workspace.GEMM.
func gemmDispatch(alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix, ws *Workspace) {
	m, n := c.Rows, c.Cols
	_, k := opDims(a, opA)
	if int64(m)*int64(n)*int64(k) < packThreshold && opA == NoTrans && opB == NoTrans {
		gemmStripe(alpha, a, b, beta, c)
		return
	}
	if ws != nil {
		gemmBlocked(alpha, a, opA, b, opB, beta, c, &ws.pack)
		return
	}
	pb := packPool.Get().(*packBuf)
	gemmBlocked(alpha, a, opA, b, opB, beta, c, pb)
	packPool.Put(pb)
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

// gemmStripe computes C = alpha·A·B + beta·C with A and B both in natural
// orientation. The inner loops run in i-k-j order so that
// both B and C are swept contiguously (the classic cache-friendly ordering).
func gemmStripe(alpha complex128, a, b *Matrix, beta complex128, c *Matrix) {
	n := c.Cols
	k := a.Cols
	for i := 0; i < c.Rows; i++ {
		crow := c.Data[i*n : (i+1)*n]
		if beta == 0 {
			for j := range crow {
				crow[j] = 0
			}
		} else if beta != 1 {
			for j := range crow {
				crow[j] *= beta
			}
		}
		arow := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := alpha * arow[p]
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// Mul3 returns a·b·c, association chosen to minimize work.
func Mul3(a, b, c *Matrix) *Matrix {
	// Cost of (ab)c vs a(bc) in complex multiply-adds.
	left := int64(a.Rows)*int64(a.Cols)*int64(b.Cols) + int64(a.Rows)*int64(b.Cols)*int64(c.Cols)
	right := int64(b.Rows)*int64(b.Cols)*int64(c.Cols) + int64(a.Rows)*int64(a.Cols)*int64(c.Cols)
	if left <= right {
		return Mul(Mul(a, b), c)
	}
	return Mul(a, Mul(b, c))
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
