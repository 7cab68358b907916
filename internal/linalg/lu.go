package linalg

import (
	"errors"
	"math/cmplx"
)

// errSingular is returned when a factorization encounters an
// (numerically) singular matrix.
var errSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorization with partial pivoting: P·A = L·U where L is
// unit lower triangular and U is upper triangular, both packed into lu.
type LU struct {
	lu    *Matrix
	pivot []int
}

// newLU allocates an LU record with storage for n×n factorizations. The
// record is reusable: successive FactorizeInto calls overwrite the packed
// factors and pivots in place, so the hot RGF loop refactorizes without
// heap traffic.
func newLU(n int) *LU {
	return &LU{lu: New(n, n), pivot: make([]int, n)}
}

// FactorizeInto recomputes the factorization of a into f's existing
// storage without allocating — the workspace path of the RGF kernel
// (obtain f once with Workspace.LUFor, refactorize every block). The
// retarded Green's function solve (E·S − H − Σᴿ)·Gᴿ = I in the RGF kernel
// reduces to factorizations of the per-block effective Hamiltonian.
func (f *LU) FactorizeInto(a *Matrix) error {
	if !a.IsSquare() || a.Rows != f.lu.Rows {
		return errors.New("linalg: FactorizeInto dimension mismatch")
	}
	f.lu.CopyFrom(a)
	return f.factorize()
}

// factorize runs the pivoted elimination on the matrix already stored in
// f.lu, overwriting it with the packed factors.
func (f *LU) factorize() error {
	n := f.lu.Rows
	piv := f.pivot
	d := f.lu.Data
	countFlops(8 * int64(n) * int64(n) * int64(n) * 2 / 3)
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at or below the diagonal.
		p := col
		max := cmplx.Abs(d[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := cmplx.Abs(d[r*n+col]); a > max {
				max, p = a, r
			}
		}
		if max == 0 {
			return errSingular
		}
		piv[col] = p
		if p != col {
			rp, rc := d[p*n:(p+1)*n], d[col*n:(col+1)*n]
			for j := range rp {
				rp[j], rc[j] = rc[j], rp[j]
			}
		}
		inv := 1 / d[col*n+col]
		for r := col + 1; r < n; r++ {
			fac := d[r*n+col] * inv
			d[r*n+col] = fac
			if fac == 0 {
				continue
			}
			rr := d[r*n+col+1 : (r+1)*n]
			rc := d[col*n+col+1 : (col+1)*n]
			vecSubMul(rr, rc, fac)
		}
	}
	return nil
}

// solveInPlace overwrites x with A⁻¹·x.
func (f *LU) solveInPlace(x *Matrix) {
	n := f.lu.Rows
	m := x.Cols
	d := f.lu.Data
	xd := x.Data
	countFlops(8 * int64(n) * int64(n) * int64(m))
	// Apply the row permutation.
	for i := 0; i < n; i++ {
		if p := f.pivot[i]; p != i {
			ri, rp := xd[i*m:(i+1)*m], xd[p*m:(p+1)*m]
			for j := range ri {
				ri[j], rp[j] = rp[j], ri[j]
			}
		}
	}
	// Forward substitution with unit-lower L. The zero-skip guards are
	// semantic, not just a shortcut: skipping preserves -0 payloads that
	// x -= 0*xk would rewrite, and structured factors from block
	// assembly carry many exact zeros.
	for i := 1; i < n; i++ {
		xi := xd[i*m : (i+1)*m]
		for k := 0; k < i; k++ {
			l := d[i*n+k]
			if l == 0 {
				continue
			}
			vecSubMul(xi, xd[k*m:(k+1)*m], l)
		}
	}
	// Backward substitution with U.
	for i := n - 1; i >= 0; i-- {
		xi := xd[i*m : (i+1)*m]
		for k := i + 1; k < n; k++ {
			u := d[i*n+k]
			if u == 0 {
				continue
			}
			vecSubMul(xi, xd[k*m:(k+1)*m], u)
		}
		vecScale(xi, 1/d[i*n+i])
	}
}

// InverseInto overwrites dst with the inverse of the factorized matrix:
// dst is set to the identity and solved in place, exactly the sequence
// Inverse performs on a fresh matrix.
func (f *LU) InverseInto(dst *Matrix) {
	dst.setIdentity()
	f.solveInPlace(dst)
}

// Inverse returns A⁻¹ for square A, or an error for a non-square or
// singular A.
func Inverse(a *Matrix) (*Matrix, error) {
	f := newLU(a.Rows)
	if err := f.FactorizeInto(a); err != nil {
		return nil, err
	}
	inv := Eye(a.Rows)
	f.solveInPlace(inv)
	return inv, nil
}
