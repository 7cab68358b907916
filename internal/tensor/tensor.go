// Package tensor defines the multi-dimensional Green's-function and
// self-energy containers exchanged between the GF and SSE phases:
// the 5-D electron tensors of shape [Nkz, NE, Na, Norb, Norb] and the 6-D
// phonon tensors of shape [Nqz, Nω, Na, Nb+1, N3D, N3D] described in §4 of
// the paper. Storage is flat with the orbital block contiguous, so a block
// is a zero-copy slice view — the layout the DaCe data-layout
// transformations operate on.
package tensor

import (
	"fmt"

	"repro/internal/linalg"
)

// Electron is a 5-D tensor [Nkz, NE, Na, Norb, Norb] of complex values
// (G≷ or Σ≷ for electrons).
type Electron struct {
	Nkz, NE, Na, Norb int
	Data              []complex128
}

// NewElectron allocates a zeroed electron tensor.
func NewElectron(nkz, ne, na, norb int) *Electron {
	return &Electron{
		Nkz: nkz, NE: ne, Na: na, Norb: norb,
		Data: make([]complex128, nkz*ne*na*norb*norb),
	}
}

// BlockLen returns the length of one atom block (Norb²).
func (t *Electron) BlockLen() int { return t.Norb * t.Norb }

// Index returns the flat offset of block (ik, ie, a).
func (t *Electron) Index(ik, ie, a int) int {
	return ((ik*t.NE+ie)*t.Na + a) * t.BlockLen()
}

// Block returns the Norb² slice view of block (ik, ie, a).
func (t *Electron) Block(ik, ie, a int) []complex128 {
	o := t.Index(ik, ie, a)
	return t.Data[o : o+t.BlockLen()]
}

// Mat wraps block (ik, ie, a) as a matrix view (no copy).
func (t *Electron) Mat(ik, ie, a int) *linalg.Matrix {
	return linalg.FromSlice(t.Norb, t.Norb, t.Block(ik, ie, a))
}

// Plane returns the contiguous all-atom slice of one (kz, E) point — the
// unit of ownership the distributed decompositions move around.
func (t *Electron) Plane(ik, ie int) []complex128 {
	o := t.Index(ik, ie, 0)
	return t.Data[o : o+t.Na*t.BlockLen()]
}

// Clone deep-copies the tensor.
func (t *Electron) Clone() *Electron {
	c := NewElectron(t.Nkz, t.NE, t.Na, t.Norb)
	copy(c.Data, t.Data)
	return c
}

// Mix blends t := mix·src + (1−mix)·t, the linear self-consistency mixing.
func (t *Electron) Mix(src *Electron, mix float64) {
	if len(t.Data) != len(src.Data) {
		panic("tensor: Mix shape mismatch")
	}
	MixSlice(t.Data, src.Data, mix)
}

// MixSlice blends dst := mix·src + (1−mix)·dst elementwise — the one
// definition of the linear self-consistency mixing, shared by the tensor
// Mix methods and the distributed solver's per-plane mixing so the two
// paths stay arithmetically identical.
func MixSlice(dst, src []complex128, mix float64) {
	m := complex(mix, 0)
	om := complex(1-mix, 0)
	for i, v := range src {
		dst[i] = m*v + om*dst[i]
	}
}

// Bytes returns the tensor's payload size in bytes (complex128 = 16 B).
func (t *Electron) Bytes() int64 { return int64(len(t.Data)) * 16 }

// Phonon is a 6-D tensor [Nqz, Nω, Na, Nb+1, N3D, N3D] (D≷ or Π≷).
// Slot 0 of the neighbour axis holds the diagonal atom block (a, a);
// slot 1+s holds the coupling block (a, Neigh[a][s]).
type Phonon struct {
	Nqz, Nw, Na, NbP1, N3D int
	Data                   []complex128
}

// NewPhonon allocates a zeroed phonon tensor.
func NewPhonon(nqz, nw, na, nbp1, n3d int) *Phonon {
	return &Phonon{
		Nqz: nqz, Nw: nw, Na: na, NbP1: nbp1, N3D: n3d,
		Data: make([]complex128, nqz*nw*na*nbp1*n3d*n3d),
	}
}

// BlockLen returns N3D².
func (t *Phonon) BlockLen() int { return t.N3D * t.N3D }

// Index returns the flat offset of block (iq, iw, a, slot).
func (t *Phonon) Index(iq, iw, a, slot int) int {
	return (((iq*t.Nw+iw)*t.Na+a)*t.NbP1 + slot) * t.BlockLen()
}

// Block returns the N3D² slice view of block (iq, iw, a, slot).
func (t *Phonon) Block(iq, iw, a, slot int) []complex128 {
	o := t.Index(iq, iw, a, slot)
	return t.Data[o : o+t.BlockLen()]
}

// Plane returns the contiguous all-atom slice of one (qz, ω) point
// (iw is the zero-based frequency index, m−1).
func (t *Phonon) Plane(iq, iw int) []complex128 {
	o := t.Index(iq, iw, 0, 0)
	return t.Data[o : o+t.Na*t.NbP1*t.BlockLen()]
}

// Clone deep-copies the tensor.
func (t *Phonon) Clone() *Phonon {
	c := NewPhonon(t.Nqz, t.Nw, t.Na, t.NbP1, t.N3D)
	copy(c.Data, t.Data)
	return c
}

// Mix blends t := mix·src + (1−mix)·t.
func (t *Phonon) Mix(src *Phonon, mix float64) {
	if len(t.Data) != len(src.Data) {
		panic("tensor: Mix shape mismatch")
	}
	MixSlice(t.Data, src.Data, mix)
}

// Bytes returns the payload size in bytes.
func (t *Phonon) Bytes() int64 { return int64(len(t.Data)) * 16 }

// ShapeString formats tensor dimensions for diagnostics.
func (t *Phonon) ShapeString() string {
	return fmt.Sprintf("[%d %d %d %d %d %d]", t.Nqz, t.Nw, t.Na, t.NbP1, t.N3D, t.N3D)
}
