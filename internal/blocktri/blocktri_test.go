package blocktri

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func randomBT(rng *rand.Rand, sizes []int) *Matrix {
	m := New(sizes)
	fill := func(b *linalg.Matrix) {
		for i := range b.Data {
			b.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	for i := range m.Diag {
		fill(m.Diag[i])
	}
	for i := range m.Upper {
		fill(m.Upper[i])
		fill(m.Lower[i])
	}
	return m
}

func TestNewShapes(t *testing.T) {
	m := New([]int{2, 3, 4})
	if m.NB != 3 || m.dim() != 9 {
		t.Fatalf("NB=%d Dim=%d", m.NB, m.dim())
	}
	if m.Upper[0].Rows != 2 || m.Upper[0].Cols != 3 {
		t.Fatal("Upper[0] wrong shape")
	}
	if m.Lower[1].Rows != 4 || m.Lower[1].Cols != 3 {
		t.Fatal("Lower[1] wrong shape")
	}
}

func TestUniform(t *testing.T) {
	m := Uniform(4, 3)
	if m.dim() != 12 || len(m.Upper) != 3 {
		t.Fatal("Uniform shape wrong")
	}
}

func TestDenseScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomBT(rng, []int{2, 3, 2})
	d := m.Dense()
	// Diagonal block 1 occupies rows/cols 2..4.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d.At(2+i, 2+j) != m.Diag[1].At(i, j) {
				t.Fatal("diag block misplaced")
			}
		}
	}
	// Upper[0] couples block 0 (rows 0..1) to block 1 (cols 2..4).
	if d.At(0, 2) != m.Upper[0].At(0, 0) {
		t.Fatal("upper block misplaced")
	}
	if d.At(2, 0) != m.Lower[0].At(0, 0) {
		t.Fatal("lower block misplaced")
	}
	// Far blocks (block 0 vs block 2, two slabs apart) are zero.
	if d.At(0, 5) != 0 || d.At(5, 0) != 0 || d.At(1, 6) != 0 {
		t.Fatal("out-of-band entries should be zero")
	}
}

func TestHermitianCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomBT(rng, []int{3, 3, 3})
	// Make it Hermitian explicitly.
	for i := range m.Diag {
		linalg.Hermitize(m.Diag[i], m.Diag[i])
	}
	for i := range m.Upper {
		m.Lower[i] = m.Upper[i].H()
	}
	// The dense scatter of a Hermitian block-tridiagonal must be Hermitian.
	d := m.Dense()
	if linalg.MaxDiff(d, d.H()) > 1e-14 {
		t.Fatal("dense form not Hermitian")
	}
}
