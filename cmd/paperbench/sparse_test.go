package main

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// randomSparse builds an r×c matrix with the given nonzero density.
func randomSparse(rng *rand.Rand, r, c int, density float64) *linalg.Matrix {
	m := linalg.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	return m
}

func randomDense(rng *rand.Rand, r, c int) *linalg.Matrix {
	m := linalg.New(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomSparse(rng, 12, 9, 0.3)
	a := fromDense(d, 0)
	back := a.dense()
	if linalg.MaxDiff(d, back) != 0 {
		t.Fatal("CSR dense roundtrip not exact")
	}
}

func TestFromDenseTolDropsSmall(t *testing.T) {
	d := linalg.New(2, 2)
	d.Set(0, 0, 1)
	d.Set(1, 1, complex(1e-15, 0))
	a := fromDense(d, 1e-12)
	if a.nnz() != 1 {
		t.Fatalf("nnz = %d, want 1 (tiny entry dropped)", a.nnz())
	}
}

func TestCSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randomSparse(rng, 8, 11, 0.25)
	a := fromDense(d, 0)
	c := a.toCSC()
	if linalg.MaxDiff(c.dense(), d) != 0 {
		t.Fatal("CSC roundtrip mismatch")
	}
	if c.nnz() != a.nnz() {
		t.Fatal("nnz changed in CSR->CSC")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomSparse(rng, 6, 9, 0.3)
	at := fromDense(d, 0).transpose()
	if linalg.MaxDiff(at.dense(), transposed(d)) != 0 {
		t.Fatal("sparse transpose mismatch")
	}
}

func TestCSRMMModes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	aD := randomSparse(rng, 7, 5, 0.4)
	a := fromDense(aD, 0)

	// NN: A(7x5) · B(5x6)
	b := randomDense(rng, 5, 6)
	got := csrmm(a, linalg.NoTrans, b, linalg.NoTrans)
	want := product(aD, linalg.NoTrans, b, linalg.NoTrans)
	if linalg.MaxDiff(got, want) > 1e-12 {
		t.Fatal("csrmm NN mismatch")
	}

	// NT: A(7x5) · Bᵀ with B(6x5)
	b = randomDense(rng, 6, 5)
	got = csrmm(a, linalg.NoTrans, b, linalg.Trans)
	want = product(aD, linalg.NoTrans, b, linalg.Trans)
	if linalg.MaxDiff(got, want) > 1e-12 {
		t.Fatal("csrmm NT mismatch")
	}

	// TN: Aᵀ(5x7) · B(7x4)
	b = randomDense(rng, 7, 4)
	got = csrmm(a, linalg.Trans, b, linalg.NoTrans)
	want = product(aD, linalg.Trans, b, linalg.NoTrans)
	if linalg.MaxDiff(got, want) > 1e-12 {
		t.Fatal("csrmm TN mismatch")
	}
}

func TestCSRMMUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for TT mode")
		}
	}()
	a := fromDense(linalg.Eye(2), 0)
	csrmm(a, linalg.Trans, linalg.Eye(2), linalg.Trans)
}

func TestGEMMI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := randomDense(rng, 6, 8)
	aD := randomSparse(rng, 8, 5, 0.35)
	a := fromDense(aD, 0).toCSC()
	got := gemmi(b, a)
	want := product(b, linalg.NoTrans, aD, linalg.NoTrans)
	if linalg.MaxDiff(got, want) > 1e-12 {
		t.Fatal("gemmi mismatch")
	}
}

func TestSparseDenseEquivalenceProperty(t *testing.T) {
	// For any sparsity pattern, csrmm NN must agree with dense GEMM.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(10)
		k := 1 + rng.Intn(10)
		n := 1 + rng.Intn(10)
		aD := randomSparse(rng, m, k, 0.3)
		b := randomDense(rng, k, n)
		got := csrmm(fromDense(aD, 0), linalg.NoTrans, b, linalg.NoTrans)
		return linalg.MaxDiff(got, product(aD, linalg.NoTrans, b, linalg.NoTrans)) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestThreeMatrixProductApproachesAgree(t *testing.T) {
	// The Table 8 kernel: F · gR · E where F and E are sparse
	// Hamiltonian blocks and gR is a dense Green's function block. All
	// three evaluation strategies must produce the same result.
	rng := rand.New(rand.NewSource(6))
	n := 24
	fD := randomSparse(rng, n, n, 0.08)
	eD := randomSparse(rng, n, n, 0.08)
	g := randomDense(rng, n, n)

	dense := product(product(fD, linalg.NoTrans, g, linalg.NoTrans), linalg.NoTrans, eD, linalg.NoTrans)

	// CSRMM2(TN)/GEMMI: (Eᵀ stored CSR) — compute via E in CSC on the right.
	f := fromDense(fD, 0)
	fg := csrmm(f, linalg.NoTrans, g, linalg.NoTrans)
	viaGEMMI := gemmi(fg, fromDense(eD, 0).toCSC())
	if linalg.MaxDiff(dense, viaGEMMI) > 1e-11 {
		t.Fatal("csrmm/gemmi path mismatch")
	}

	// CSRMM2/CSRMM2 with transposes: F·gR = (NN); then (E in CSC as
	// CSR-of-transpose): F·gR·E = ((Eᵀ)·(F·gR)ᵀ)ᵀ using NT ops.
	et := fromDense(eD, 0).transpose()
	tmp := csrmm(et, linalg.NoTrans, fg, linalg.Trans) // Eᵀ·(FG)ᵀ = (FG·E)ᵀ
	viaCSRCSR := transposed(tmp)
	if linalg.MaxDiff(dense, viaCSRCSR) > 1e-11 {
		t.Fatal("csrmm/csrmm path mismatch")
	}
}

func TestEmptyMatrix(t *testing.T) {
	a := fromDense(linalg.New(3, 3), 0)
	if a.nnz() != 0 {
		t.Fatal("zero matrix should have no nonzeros")
	}
	b := randomDense(rand.New(rand.NewSource(7)), 3, 2)
	got := csrmm(a, linalg.NoTrans, b, linalg.NoTrans)
	if got.FrobNorm() != 0 {
		t.Fatal("product with zero matrix should be zero")
	}
}

// product returns op(A)·op(B) in a new matrix.
func product(a *linalg.Matrix, opA linalg.Op, b *linalg.Matrix, opB linalg.Op) *linalg.Matrix {
	m, n := a.Rows, b.Cols
	if opA != linalg.NoTrans {
		m = a.Cols
	}
	if opB != linalg.NoTrans {
		n = b.Rows
	}
	c := linalg.New(m, n)
	linalg.GEMM(1, a, opA, b, opB, 0, c)
	return c
}

// transposed returns mᵀ in a new matrix.
func transposed(m *linalg.Matrix) *linalg.Matrix {
	t := linalg.New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}
