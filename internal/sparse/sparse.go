// Package sparse provides complex sparse matrices in CSR and CSC formats
// with the multiplication kernels the paper mixes with dense algebra in
// its RGF: CSRMM (sparse·dense, in NN/NT/TN operand modes, the cuSPARSE
// csrmm2 analogue) and GEMMI (dense·CSC, the cuSPARSE gemmi analogue).
//
// The off-diagonal blocks of the DFT Hamiltonian are very sparse (each atom
// couples only to Nb neighbours out of thousands), which is why the paper's
// Table 7/8 experiments replace dense GEMM with these kernels and obtain
// 5–10× speedups on a V100. cmd/paperbench regenerates that table from
// this package; the solver itself (internal/rgf) is dense on every device
// — at this repo's block sizes and densities the kernels tie or lose
// against the blocked GEMM on a CPU (ROADMAP item 6(a)).
package sparse

import (
	"fmt"
	"math/cmplx"

	"repro/internal/linalg"
)

// CSR is a compressed-sparse-row complex matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []complex128
}

// CSC is a compressed-sparse-column complex matrix.
type CSC struct {
	Rows, Cols int
	ColPtr     []int // len Cols+1
	RowIdx     []int // len NNZ
	Val        []complex128
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int { return len(a.Val) }

// NNZ returns the number of stored nonzeros.
func (a *CSC) NNZ() int { return len(a.Val) }

// Density returns NNZ / (Rows·Cols).
func (a *CSR) Density() float64 {
	if a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	return float64(a.NNZ()) / (float64(a.Rows) * float64(a.Cols))
}

// FromDense converts m to CSR, dropping entries with |v| <= tol.
func FromDense(m *linalg.Matrix, tol float64) *CSR { return FromDenseInto(&CSR{}, m, tol) }

// FromDenseInto is FromDense reusing a's slices: a warm a re-extracts
// without heap traffic.
func FromDenseInto(a *CSR, m *linalg.Matrix, tol float64) *CSR {
	a.Rows, a.Cols = m.Rows, m.Cols
	if cap(a.RowPtr) < m.Rows+1 {
		a.RowPtr = make([]int, m.Rows+1)
	}
	a.RowPtr = a.RowPtr[:m.Rows+1]
	a.ColIdx = a.ColIdx[:0]
	a.Val = a.Val[:0]
	a.RowPtr[0] = 0
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if cmplx.Abs(v) > tol {
				a.ColIdx = append(a.ColIdx, j)
				a.Val = append(a.Val, v)
			}
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// Dense expands a back to a dense matrix.
func (a *CSR) Dense() *linalg.Matrix {
	m := linalg.New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			m.Set(i, a.ColIdx[p], a.Val[p])
		}
	}
	return m
}

// ToCSC converts a CSR matrix into CSC format.
func (a *CSR) ToCSC() *CSC { return a.ToCSCInto(&CSC{}, make([]int, a.Cols)) }

// ToCSCInto is ToCSC reusing c's slices. next is caller-provided scratch
// of length ≥ a.Cols.
func (a *CSR) ToCSCInto(c *CSC, next []int) *CSC {
	c.Rows, c.Cols = a.Rows, a.Cols
	if cap(c.ColPtr) < a.Cols+1 {
		c.ColPtr = make([]int, a.Cols+1)
	}
	c.ColPtr = c.ColPtr[:a.Cols+1]
	for j := range c.ColPtr {
		c.ColPtr[j] = 0
	}
	for _, j := range a.ColIdx {
		c.ColPtr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		c.ColPtr[j+1] += c.ColPtr[j]
	}
	nnz := a.NNZ()
	if cap(c.RowIdx) < nnz {
		c.RowIdx = make([]int, nnz)
	}
	c.RowIdx = c.RowIdx[:nnz]
	if cap(c.Val) < nnz {
		c.Val = make([]complex128, nnz)
	}
	c.Val = c.Val[:nnz]
	next = next[:a.Cols]
	copy(next, c.ColPtr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			q := next[j]
			c.RowIdx[q] = i
			c.Val[q] = a.Val[p]
			next[j]++
		}
	}
	return c
}

// Dense expands a CSC matrix to dense.
func (c *CSC) Dense() *linalg.Matrix {
	m := linalg.New(c.Rows, c.Cols)
	for j := 0; j < c.Cols; j++ {
		for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
			m.Set(c.RowIdx[p], j, c.Val[p])
		}
	}
	return m
}

// Transpose returns aᵀ as CSR. Structurally this is the CSC form of a
// reinterpreted, so it is cheap.
func (a *CSR) Transpose() *CSR {
	c := a.ToCSC()
	return &CSR{Rows: a.Cols, Cols: a.Rows, RowPtr: c.ColPtr, ColIdx: c.RowIdx, Val: c.Val}
}

// ConjTranspose returns aᴴ as CSR.
func (a *CSR) ConjTranspose() *CSR {
	t := a.Transpose()
	vals := make([]complex128, len(t.Val))
	for i, v := range t.Val {
		vals[i] = cmplx.Conj(v)
	}
	t.Val = vals
	return t
}

// CSRMM computes C = op(A)·B where A is sparse CSR and B is dense.
// Supported op modes mirror cusparseZcsrmm2: NN, NT (B transposed) and
// TN (A transposed). The result is dense.
func CSRMM(a *CSR, opA linalg.Op, b *linalg.Matrix, opB linalg.Op) *linalg.Matrix {
	switch {
	case opA == linalg.NoTrans && opB == linalg.NoTrans:
		return CSRMMInto(linalg.New(a.Rows, b.Cols), a, b)
	case opA == linalg.NoTrans && opB == linalg.Trans:
		return csrmmNT(a, b)
	case opA == linalg.Trans && opB == linalg.NoTrans:
		return csrmmTN(a, b)
	default:
		panic(fmt.Sprintf("sparse: CSRMM unsupported op combination %v/%v", opA, opB))
	}
}

// csrmmNT computes C = A·Bᵀ. Note the dense operand is accessed row-wise,
// which is why NT is the fastest mode in Table 7: both operands stream
// contiguously.
func csrmmNT(a *CSR, b *linalg.Matrix) *linalg.Matrix {
	if a.Cols != b.Cols {
		panic("sparse: CSRMM NT shape mismatch")
	}
	c := linalg.New(a.Rows, b.Rows)
	n := b.Rows
	for i := 0; i < a.Rows; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Row(j)
			var sum complex128
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				sum += a.Val[p] * brow[a.ColIdx[p]]
			}
			crow[j] = sum
		}
	}
	return c
}

// csrmmTN computes C = Aᵀ·B by scattering, the strided access pattern that
// makes TN the slowest mode in Table 7.
func csrmmTN(a *CSR, b *linalg.Matrix) *linalg.Matrix {
	if a.Rows != b.Rows {
		panic("sparse: CSRMM TN shape mismatch")
	}
	c := linalg.New(a.Cols, b.Cols)
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		brow := b.Data[i*n : (i+1)*n]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			av := a.Val[p]
			crow := c.Data[a.ColIdx[p]*n : (a.ColIdx[p]+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// GEMMI computes C = B·A where B is dense and A is sparse CSC — the
// cusparseZgemmi analogue (dense·sparse, NN only).
func GEMMI(b *linalg.Matrix, a *CSC) *linalg.Matrix {
	return GEMMIInto(linalg.New(b.Rows, a.Cols), b, a)
}

// CSRMMInto computes dst = A·B (the NN mode of CSRMM) into a
// preallocated dst, overwriting it. dst must not alias b. Per element
// the products accumulate in ascending stored-column order, which skips
// exact zeros — results are tolerance-equivalent, not bit-identical, to
// the dense GEMM.
func CSRMMInto(dst *linalg.Matrix, a *CSR, b *linalg.Matrix) *linalg.Matrix {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("sparse: CSRMMInto shape mismatch")
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		crow := dst.Data[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			av := a.Val[p]
			brow := b.Data[a.ColIdx[p]*n : (a.ColIdx[p]+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return dst
}

// GEMMIInto computes dst = B·A (dense·sparse-CSC) into a preallocated
// dst, overwriting it. dst must not alias b. Each element is one gather
// over its column's stored rows; same tolerance-equivalence caveat as
// CSRMMInto.
func GEMMIInto(dst, b *linalg.Matrix, a *CSC) *linalg.Matrix {
	if b.Cols != a.Rows || dst.Rows != b.Rows || dst.Cols != a.Cols {
		panic("sparse: GEMMIInto shape mismatch")
	}
	for i := 0; i < b.Rows; i++ {
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		crow := dst.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < a.Cols; j++ {
			var sum complex128
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				sum += brow[a.RowIdx[p]] * a.Val[p]
			}
			crow[j] = sum
		}
	}
	return dst
}

// MulFlops returns the real-flop cost of multiplying op(A)(sparse)·B(dense):
// 8 flops per stored nonzero per dense column.
func (a *CSR) MulFlops(denseCols int) int64 {
	return 8 * int64(a.NNZ()) * int64(denseCols)
}
