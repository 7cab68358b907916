// Package blocktri provides the block-tridiagonal matrix container that the
// quantum transport equations are formulated on. The DFT Hamiltonian H(kz),
// overlap S(kz) and dynamical matrix Φ(qz) of a homogeneous nanostructure
// are all block-tridiagonal when atoms are grouped into bnum contiguous
// slabs along the transport axis (§4 of the paper); the RGF solver performs
// its forward/backward passes over these blocks.
package blocktri

import "repro/internal/linalg"

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

// dim returns the total matrix dimension (sum of block sizes).
func (m *Matrix) dim() int {
	d := 0
	for _, s := range m.Sizes {
		d += s
	}
	return d
}

// Dense scatters the blocks into a full dense matrix — used by the
// reference solvers that validate RGF.
func (m *Matrix) Dense() *linalg.Matrix {
	n := m.dim()
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

func placeBlock(dst *linalg.Matrix, b *linalg.Matrix, r0, c0 int) {
	for i := 0; i < b.Rows; i++ {
		copy(dst.Data[(r0+i)*dst.Cols+c0:(r0+i)*dst.Cols+c0+b.Cols], b.Row(i))
	}
}
