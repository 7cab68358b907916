package main

// Complex sparse matrices in CSR and CSC formats with the multiplication
// kernels Tables 7–8 time against dense GEMM: csrmm (sparse·dense, in
// NN/NT/TN operand modes, the cuSPARSE csrmm2 analogue) and gemmi
// (dense·CSC, the cuSPARSE gemmi analogue).
//
// The off-diagonal blocks of the DFT Hamiltonian are very sparse (each atom
// couples only to Nb neighbours out of thousands), which is why the paper's
// Table 7/8 experiments replace dense GEMM with these kernels and obtain
// 5–10× speedups on a V100. The solver itself (internal/rgf) is dense on
// every device — at this repo's block sizes and densities the kernels tie
// or lose against the blocked GEMM on a CPU (ROADMAP item 6(a)).

import (
	"fmt"
	"math/cmplx"

	"repro/internal/linalg"
)

// csr is a compressed-sparse-row complex matrix.
type csr struct {
	rows, cols int
	rowPtr     []int // len rows+1
	colIdx     []int // len nnz
	val        []complex128
}

// csc is a compressed-sparse-column complex matrix.
type csc struct {
	rows, cols int
	colPtr     []int // len cols+1
	rowIdx     []int // len nnz
	val        []complex128
}

func (a *csr) nnz() int { return len(a.val) }

func (c *csc) nnz() int { return len(c.val) }

// fromDense converts m to CSR, dropping entries with |v| <= tol.
func fromDense(m *linalg.Matrix, tol float64) *csr {
	a := &csr{rows: m.Rows, cols: m.Cols, rowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if cmplx.Abs(v) > tol {
				a.colIdx = append(a.colIdx, j)
				a.val = append(a.val, v)
			}
		}
		a.rowPtr[i+1] = len(a.val)
	}
	return a
}

// dense expands a back to a dense matrix.
func (a *csr) dense() *linalg.Matrix {
	m := linalg.New(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			m.Set(i, a.colIdx[p], a.val[p])
		}
	}
	return m
}

// toCSC converts a CSR matrix into CSC format.
func (a *csr) toCSC() *csc {
	c := &csc{rows: a.rows, cols: a.cols, colPtr: make([]int, a.cols+1),
		rowIdx: make([]int, a.nnz()), val: make([]complex128, a.nnz())}
	for _, j := range a.colIdx {
		c.colPtr[j+1]++
	}
	for j := 0; j < a.cols; j++ {
		c.colPtr[j+1] += c.colPtr[j]
	}
	next := append([]int(nil), c.colPtr[:a.cols]...)
	for i := 0; i < a.rows; i++ {
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			j := a.colIdx[p]
			q := next[j]
			c.rowIdx[q] = i
			c.val[q] = a.val[p]
			next[j]++
		}
	}
	return c
}

// dense expands a CSC matrix to dense.
func (c *csc) dense() *linalg.Matrix {
	m := linalg.New(c.rows, c.cols)
	for j := 0; j < c.cols; j++ {
		for p := c.colPtr[j]; p < c.colPtr[j+1]; p++ {
			m.Set(c.rowIdx[p], j, c.val[p])
		}
	}
	return m
}

// transpose returns aᵀ as CSR. Structurally this is the CSC form of a
// reinterpreted, so it is cheap.
func (a *csr) transpose() *csr {
	c := a.toCSC()
	return &csr{rows: a.cols, cols: a.rows, rowPtr: c.colPtr, colIdx: c.rowIdx, val: c.val}
}

// csrmm computes C = op(A)·B where A is sparse CSR and B is dense.
// Supported op modes mirror cusparseZcsrmm2: NN, NT (B transposed) and
// TN (A transposed). The result is dense.
func csrmm(a *csr, opA linalg.Op, b *linalg.Matrix, opB linalg.Op) *linalg.Matrix {
	switch {
	case opA == linalg.NoTrans && opB == linalg.NoTrans:
		return csrmmNN(a, b)
	case opA == linalg.NoTrans && opB == linalg.Trans:
		return csrmmNT(a, b)
	case opA == linalg.Trans && opB == linalg.NoTrans:
		return csrmmTN(a, b)
	default:
		panic(fmt.Sprintf("sparse: csrmm unsupported op combination %v/%v", opA, opB))
	}
}

// csrmmNN computes C = A·B. Per element the products accumulate in
// ascending stored-column order, which skips exact zeros — results are
// tolerance-equivalent, not bit-identical, to the dense GEMM.
func csrmmNN(a *csr, b *linalg.Matrix) *linalg.Matrix {
	if a.cols != b.Rows {
		panic("sparse: csrmm NN shape mismatch")
	}
	c := linalg.New(a.rows, b.Cols)
	n := b.Cols
	for i := 0; i < a.rows; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			av := a.val[p]
			brow := b.Data[a.colIdx[p]*n : (a.colIdx[p]+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// csrmmNT computes C = A·Bᵀ. Note the dense operand is accessed row-wise,
// which is why NT is the fastest mode in Table 7: both operands stream
// contiguously.
func csrmmNT(a *csr, b *linalg.Matrix) *linalg.Matrix {
	if a.cols != b.Cols {
		panic("sparse: csrmm NT shape mismatch")
	}
	c := linalg.New(a.rows, b.Rows)
	n := b.Rows
	for i := 0; i < a.rows; i++ {
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Row(j)
			var sum complex128
			for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
				sum += a.val[p] * brow[a.colIdx[p]]
			}
			crow[j] = sum
		}
	}
	return c
}

// csrmmTN computes C = Aᵀ·B by scattering, the strided access pattern that
// makes TN the slowest mode in Table 7.
func csrmmTN(a *csr, b *linalg.Matrix) *linalg.Matrix {
	if a.rows != b.Rows {
		panic("sparse: csrmm TN shape mismatch")
	}
	c := linalg.New(a.cols, b.Cols)
	n := b.Cols
	for i := 0; i < a.rows; i++ {
		brow := b.Data[i*n : (i+1)*n]
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			av := a.val[p]
			crow := c.Data[a.colIdx[p]*n : (a.colIdx[p]+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// gemmi computes C = B·A where B is dense and A is sparse CSC — the
// cusparseZgemmi analogue (dense·sparse, NN only). Each element is one
// gather over its column's stored rows.
func gemmi(b *linalg.Matrix, a *csc) *linalg.Matrix {
	if b.Cols != a.rows {
		panic("sparse: gemmi shape mismatch")
	}
	c := linalg.New(b.Rows, a.cols)
	for i := 0; i < b.Rows; i++ {
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		crow := c.Data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < a.cols; j++ {
			var sum complex128
			for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
				sum += brow[a.rowIdx[p]] * a.val[p]
			}
			crow[j] = sum
		}
	}
	return c
}
