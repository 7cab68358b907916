package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("got %dx%d", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestEye(t *testing.T) {
	m := Eye(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("Eye(4)[%d,%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5+2i)
	if m.At(1, 2) != 5+2i {
		t.Fatalf("At/Set mismatch")
	}
	if m.Row(1)[2] != 5+2i {
		t.Fatalf("Row view mismatch")
	}
	m.Row(0)[0] = 7
	if m.At(0, 0) != 7 {
		t.Fatalf("Row is not a live view")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 3, 3)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone aliases original")
	}
}

func TestTransposeAndHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 3, 5)
	at := transpose(a)
	ah := a.H()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatal("transpose mismatch")
			}
			if ah.At(j, i) != cmplx.Conj(a.At(i, j)) {
				t.Fatal("Hermitian conjugate mismatch")
			}
		}
	}
}

func TestDoubleHermitianIsIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := randomMatrix(rng, r, c)
		return equalApprox(a.H().H(), a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		s := Add(New(n, n), a, b)
		return cmplx.Abs(trace(s)-(trace(a)+trace(b))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 4, 4)
	b := randomMatrix(rng, 4, 4)
	sum := Add(New(4, 4), a, b)
	diff := Sub(New(4, 4), sum, b)
	if !equalApprox(diff, a, 1e-14) {
		t.Fatal("Add then Sub does not round-trip")
	}
	sc := Scale(New(4, 4), 2, a)
	back := Scale(New(4, 4), 0.5, sc)
	if !equalApprox(back, a, 1e-14) {
		t.Fatal("Scale does not round-trip")
	}
	ax := a.Clone()
	AXPY(ax, -1, a)
	if ax.FrobNorm() > 1e-14 {
		t.Fatal("AXPY(-1, a) should zero out a")
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 3, 9}, {16, 16, 16}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		got := mul(a, b)
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s complex128
				for p := 0; p < k; p++ {
					s += a.At(i, p) * b.At(p, j)
				}
				want.Set(i, j, s)
			}
		}
		if MaxDiff(got, want) > 1e-12 {
			t.Fatalf("MatMul %v mismatch: %g", dims, MaxDiff(got, want))
		}
	}
}

func TestMatMulOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 4, 6)
	b := randomMatrix(rng, 4, 6)
	// op(A)=Aᵀ (6x4), op(B)=B (4x6): valid.
	tn := matMul(a, Trans, b, NoTrans)
	want := mul(transpose(a), b)
	if MaxDiff(tn, want) > 1e-12 {
		t.Fatal("TN mismatch")
	}
	nt := matMul(a, NoTrans, b, Trans)
	want = mul(a, transpose(b))
	if MaxDiff(nt, want) > 1e-12 {
		t.Fatal("NT mismatch")
	}
	cc := matMul(a, ConjTrans, b, NoTrans)
	want = mul(a.H(), b)
	if MaxDiff(cc, want) > 1e-12 {
		t.Fatal("CN mismatch")
	}
}

func TestGEMMAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomMatrix(rng, 3, 3)
	b := randomMatrix(rng, 3, 3)
	c := randomMatrix(rng, 3, 3)
	c0 := c.Clone()
	GEMM(2, a, NoTrans, b, NoTrans, 3, c)
	want := Add(New(3, 3), Scale(New(3, 3), 2, mul(a, b)), Scale(New(3, 3), 3, c0))
	if MaxDiff(c, want) > 1e-12 {
		t.Fatal("GEMM alpha/beta mismatch")
	}
}

func TestGEMMParallelLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 70 // larger than any block a benchmark device has (64)
	a := randomMatrix(rng, n, n)
	b := randomMatrix(rng, n, n)
	got := mul(a, b)
	// Spot-check a handful of entries against the naive sum.
	for _, idx := range [][2]int{{0, 0}, {n - 1, n - 1}, {3, 61}, {40, 7}} {
		var s complex128
		for p := 0; p < n; p++ {
			s += a.At(idx[0], p) * b.At(p, idx[1])
		}
		if cmplx.Abs(got.At(idx[0], idx[1])-s) > 1e-9 {
			t.Fatalf("large GEMM wrong at %v", idx)
		}
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		c := randomMatrix(rng, n, n)
		left := mul(mul(a, b), c)
		right := mul(a, mul(b, c))
		return MaxDiff(left, right) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProductHermitianConjugateProperty(t *testing.T) {
	// (AB)ᴴ = Bᴴ Aᴴ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		return MaxDiff(mul(a, b).H(), mul(b.H(), a.H())) < 1e-11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMul3Associativity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomMatrix(rng, 2, 8)
	b := randomMatrix(rng, 8, 3)
	c := randomMatrix(rng, 3, 5)
	got := Mul3(a, b, c)
	want := mul(mul(a, b), c)
	if MaxDiff(got, want) > 1e-11 {
		t.Fatal("Mul3 mismatch")
	}
}

func TestHermitize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomMatrix(rng, 5, 5)
	h := Hermitize(New(5, 5), a)
	if !equalApprox(h, h.H(), 1e-14) {
		t.Fatal("Hermitize result not Hermitian")
	}
	// Hermitize of a Hermitian matrix is the identity operation.
	h2 := Hermitize(New(5, 5), h)
	if !equalApprox(h2, h, 1e-14) {
		t.Fatal("Hermitize not idempotent")
	}
}

func TestFrobNormAndMaxAbs(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 4i)
	if math.Abs(m.FrobNorm()-5) > 1e-14 {
		t.Fatalf("FrobNorm = %g, want 5", m.FrobNorm())
	}
	if math.Abs(m.MaxAbs()-4) > 1e-14 {
		t.Fatalf("MaxAbs = %g, want 4", m.MaxAbs())
	}
}

func TestFlopCounting(t *testing.T) {
	EnableFlopCounting(true)
	defer EnableFlopCounting(false)
	ResetFlops()
	a := Eye(10)
	b := Eye(10)
	mul(a, b)
	if got := Flops(); got != 8*10*10*10 {
		t.Fatalf("Flops = %d, want %d", got, 8*1000)
	}
	ResetFlops()
	if Flops() != 0 {
		t.Fatal("ResetFlops did not clear")
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	mul(New(2, 3), New(2, 3))
}

func TestLUSolveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 10, 33} {
		a := randomMatrix(rng, n, n)
		// Diagonal dominance guarantees nonsingularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(n), 0))
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		prod := mul(a, inv)
		if MaxDiff(prod, Eye(n)) > 1e-9 {
			t.Fatalf("n=%d: A·A⁻¹ differs from I by %g", n, MaxDiff(prod, Eye(n)))
		}
	}
}

func TestLUSolveMultipleRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 8
	a := randomMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+10)
	}
	x := randomMatrix(rng, n, 3)
	b := mul(a, x)
	got, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if MaxDiff(got, x) > 1e-10 {
		t.Fatalf("Solve mismatch: %g", MaxDiff(got, x))
	}
}

func TestLUSingular(t *testing.T) {
	a := New(3, 3) // all zeros
	if _, err := luOf(a); err != errSingular {
		t.Fatalf("expected errSingular, got %v", err)
	}
	// Rank-deficient.
	b := New(2, 2)
	b.Set(0, 0, 1)
	b.Set(0, 1, 2)
	b.Set(1, 0, 2)
	b.Set(1, 1, 4)
	if _, err := luOf(b); err != errSingular {
		t.Fatalf("expected errSingular for rank-1 matrix, got %v", err)
	}
}

func TestLUDeterminant(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	f, err := luOf(a)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(det(f)-(-2)) > 1e-12 {
		t.Fatalf("Det = %v, want -2", det(f))
	}
}

func TestInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(5+float64(n), 0))
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return MaxDiff(mul(inv, a), Eye(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveConsistentWithInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 6
	a := randomMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+8)
	}
	b := randomMatrix(rng, n, n)
	x1, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	x2 := mul(inv, b)
	if MaxDiff(x1, x2) > 1e-9 {
		t.Fatal("Solve and Inverse-multiply disagree")
	}
}

// The allocating conveniences the tests spell their oracles with.

// matMul returns op(A)·op(B) in a new matrix.
func matMul(a *Matrix, opA Op, b *Matrix, opB Op) *Matrix {
	m, _ := opDims(a, opA)
	_, n := opDims(b, opB)
	c := New(m, n)
	GEMM(1, a, opA, b, opB, 0, c)
	return c
}

// transpose returns aᵀ in a new matrix.
func transpose(a *Matrix) *Matrix { return tInto(New(a.Cols, a.Rows), a) }

// trace returns the sum of the diagonal elements of square m.
func trace(m *Matrix) complex128 {
	var t complex128
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// luOf factorizes a into a fresh LU record.
func luOf(a *Matrix) (*LU, error) {
	f := newLU(a.Rows)
	if err := f.FactorizeInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// solve returns X with A·X = B.
func solve(a, b *Matrix) (*Matrix, error) {
	f, err := luOf(a)
	if err != nil {
		return nil, err
	}
	x := b.Clone()
	f.solveInPlace(x)
	return x, nil
}

// det returns the determinant of the factorized matrix: the product of
// U's diagonal, negated once per row swap of the pivoting.
func det(f *LU) complex128 {
	n := f.lu.Rows
	d := complex(1, 0)
	for i := 0; i < n; i++ {
		if f.pivot[i] != i {
			d = -d
		}
		d *= f.lu.At(i, i)
	}
	return d
}

// equalApprox reports whether a and b have the same shape and all elements
// agree within absolute tolerance tol.
func equalApprox(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
