// Package blocktri provides the block-tridiagonal matrix container that the
// quantum transport equations are formulated on. The DFT Hamiltonian H(kz),
// overlap S(kz) and dynamical matrix Φ(qz) of a homogeneous nanostructure
// are all block-tridiagonal when atoms are grouped into bnum contiguous
// slabs along the transport axis (§4 of the paper); the RGF solver performs
// its forward/backward passes over these blocks.
package blocktri

import (
	"fmt"

	"repro/internal/linalg"
)

// Matrix is a square block-tridiagonal matrix with NB diagonal blocks.
// Block i has size Sizes[i]; Upper[i] couples block i to block i+1 and
// Lower[i] couples block i+1 to block i.
type Matrix struct {
	NB    int
	Sizes []int
	Diag  []*linalg.Matrix // NB blocks, Sizes[i]×Sizes[i]
	Upper []*linalg.Matrix // NB-1 blocks, Sizes[i]×Sizes[i+1]
	Lower []*linalg.Matrix // NB-1 blocks, Sizes[i+1]×Sizes[i]
}

// New allocates a zero block-tridiagonal matrix with the given block sizes.
func New(sizes []int) *Matrix {
	nb := len(sizes)
	m := &Matrix{
		NB:    nb,
		Sizes: append([]int(nil), sizes...),
		Diag:  make([]*linalg.Matrix, nb),
		Upper: make([]*linalg.Matrix, nb-1),
		Lower: make([]*linalg.Matrix, nb-1),
	}
	for i, s := range sizes {
		m.Diag[i] = linalg.New(s, s)
		if i+1 < nb {
			m.Upper[i] = linalg.New(s, sizes[i+1])
			m.Lower[i] = linalg.New(sizes[i+1], s)
		}
	}
	return m
}

// Uniform allocates a block-tridiagonal matrix with nb blocks of size bs.
func Uniform(nb, bs int) *Matrix {
	sizes := make([]int, nb)
	for i := range sizes {
		sizes[i] = bs
	}
	return New(sizes)
}

// Dim returns the total matrix dimension (sum of block sizes).
func (m *Matrix) Dim() int {
	d := 0
	for _, s := range m.Sizes {
		d += s
	}
	return d
}

// Offset returns the global row/column offset of block i.
func (m *Matrix) Offset(i int) int {
	o := 0
	for b := 0; b < i; b++ {
		o += m.Sizes[b]
	}
	return o
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Sizes)
	for i := range m.Diag {
		c.Diag[i].CopyFrom(m.Diag[i])
	}
	for i := range m.Upper {
		c.Upper[i].CopyFrom(m.Upper[i])
		c.Lower[i].CopyFrom(m.Lower[i])
	}
	return c
}

// Dense scatters the blocks into a full dense matrix — used by the
// reference solvers that validate RGF.
func (m *Matrix) Dense() *linalg.Matrix {
	n := m.Dim()
	d := linalg.New(n, n)
	off := 0
	for i := 0; i < m.NB; i++ {
		placeBlock(d, m.Diag[i], off, off)
		if i+1 < m.NB {
			placeBlock(d, m.Upper[i], off, off+m.Sizes[i])
			placeBlock(d, m.Lower[i], off+m.Sizes[i], off)
		}
		off += m.Sizes[i]
	}
	return d
}

// Hermitian reports whether the matrix equals its conjugate transpose
// within tol (diagonal blocks Hermitian, Lower[i] == Upper[i]ᴴ).
func (m *Matrix) Hermitian(tol float64) bool {
	for i := 0; i < m.NB; i++ {
		if !linalg.EqualApprox(m.Diag[i], m.Diag[i].H(), tol) {
			return false
		}
		if i+1 < m.NB && !linalg.EqualApprox(m.Lower[i], m.Upper[i].H(), tol) {
			return false
		}
	}
	return true
}

// Scale multiplies every block by s in place.
func (m *Matrix) Scale(s complex128) {
	for i := range m.Diag {
		linalg.Scale(m.Diag[i], s, m.Diag[i])
	}
	for i := range m.Upper {
		linalg.Scale(m.Upper[i], s, m.Upper[i])
		linalg.Scale(m.Lower[i], s, m.Lower[i])
	}
}

// AXPY performs m += s·other blockwise. Panics on shape mismatch.
func (m *Matrix) AXPY(s complex128, other *Matrix) {
	if m.NB != other.NB {
		panic(fmt.Sprintf("blocktri: AXPY block-count mismatch %d vs %d", m.NB, other.NB))
	}
	for i := range m.Diag {
		linalg.AXPY(m.Diag[i], s, other.Diag[i])
	}
	for i := range m.Upper {
		linalg.AXPY(m.Upper[i], s, other.Upper[i])
		linalg.AXPY(m.Lower[i], s, other.Lower[i])
	}
}

func placeBlock(dst *linalg.Matrix, b *linalg.Matrix, r0, c0 int) {
	for i := 0; i < b.Rows; i++ {
		copy(dst.Data[(r0+i)*dst.Cols+c0:(r0+i)*dst.Cols+c0+b.Cols], b.Row(i))
	}
}

// ExtractBlock copies the (r0..r0+rows, c0..c0+cols) window of a dense
// matrix into a new Matrix — the inverse of Dense for validation.
func ExtractBlock(src *linalg.Matrix, r0, c0, rows, cols int) *linalg.Matrix {
	out := linalg.New(rows, cols)
	for i := 0; i < rows; i++ {
		copy(out.Row(i), src.Data[(r0+i)*src.Cols+c0:(r0+i)*src.Cols+c0+cols])
	}
	return out
}
