package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestFromDenseIntoMatchesFromDense checks the slice-reusing extraction
// against the allocating one, including re-extraction into a previously
// larger buffer.
func TestFromDenseIntoMatchesFromDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var a CSR
	for _, dims := range [][2]int{{12, 9}, {20, 20}, {5, 7}, {12, 9}} {
		d := randomSparse(rng, dims[0], dims[1], 0.3)
		FromDenseInto(&a, d, 0)
		want := FromDense(d, 0)
		if a.Rows != want.Rows || a.Cols != want.Cols || a.NNZ() != want.NNZ() {
			t.Fatalf("dims %v: structure mismatch", dims)
		}
		for i := range want.RowPtr {
			if a.RowPtr[i] != want.RowPtr[i] {
				t.Fatalf("dims %v: RowPtr[%d] differs", dims, i)
			}
		}
		for i := range want.Val {
			if a.ColIdx[i] != want.ColIdx[i] || a.Val[i] != want.Val[i] {
				t.Fatalf("dims %v: entry %d differs", dims, i)
			}
		}
	}
	// Tolerance dropping must match too.
	d := linalg.New(2, 2)
	d.Set(0, 0, 1)
	d.Set(1, 1, complex(1e-15, 0))
	FromDenseInto(&a, d, 1e-12)
	if a.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (tiny entry dropped)", a.NNZ())
	}
}

// TestToCSCIntoMatchesToCSC checks the scratch-reusing conversion against
// the allocating one across shape changes.
func TestToCSCIntoMatchesToCSC(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var c CSC
	next := make([]int, 32)
	for _, dims := range [][2]int{{8, 11}, {15, 6}, {8, 11}} {
		d := randomSparse(rng, dims[0], dims[1], 0.25)
		csr := FromDense(d, 0)
		csr.ToCSCInto(&c, next)
		if linalg.MaxDiff(c.Dense(), d) != 0 {
			t.Fatalf("dims %v: ToCSCInto roundtrip mismatch", dims)
		}
		want := csr.ToCSC()
		for j := range want.ColPtr {
			if c.ColPtr[j] != want.ColPtr[j] {
				t.Fatalf("dims %v: ColPtr[%d] differs", dims, j)
			}
		}
		for p := range want.Val {
			if c.RowIdx[p] != want.RowIdx[p] || c.Val[p] != want.Val[p] {
				t.Fatalf("dims %v: entry %d differs", dims, p)
			}
		}
	}
}

// TestCSRMMIntoBitwise pins the preallocated NN kernel bitwise against the
// allocating CSRMM (its wrapper): a dst holding stale values is
// overwritten in full.
func TestCSRMMIntoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	aD := randomSparse(rng, 13, 9, 0.3)
	a := FromDense(aD, 0)
	b := randomDense(rng, 9, 11)
	want := CSRMM(a, linalg.NoTrans, b, linalg.NoTrans)
	got := randomDense(rng, 13, 11) // overwritten in full
	CSRMMInto(got, a, b)
	if linalg.MaxDiff(got, want) != 0 {
		t.Fatal("CSRMMInto differs from CSRMM")
	}
}

// TestGEMMIIntoBitwise pins the preallocated dense·CSC kernel bitwise
// against GEMMI (its wrapper): a dst holding stale values is overwritten
// in full.
func TestGEMMIIntoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	b := randomDense(rng, 10, 8)
	aD := randomSparse(rng, 8, 7, 0.35)
	a := FromDense(aD, 0).ToCSC()
	want := GEMMI(b, a)
	got := randomDense(rng, 10, 7)
	GEMMIInto(got, b, a)
	if linalg.MaxDiff(got, want) != 0 {
		t.Fatal("GEMMIInto differs from GEMMI")
	}
}

// TestIntoVariantsSteadyStateAllocs pins extraction, conversion and both
// products allocation-free once their destinations are warm.
func TestIntoVariantsSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	d := randomSparse(rng, 24, 24, 0.15)
	var csr CSR
	var csc CSC
	next := make([]int, 24)
	dst := linalg.New(24, 24)
	g := randomDense(rng, 24, 24)
	warm := func() {
		FromDenseInto(&csr, d, 0)
		csr.ToCSCInto(&csc, next)
		CSRMMInto(dst, &csr, g)
		GEMMIInto(dst, g, &csc)
	}
	warm()
	if allocs := testing.AllocsPerRun(10, warm); allocs > 0 {
		t.Errorf("warm Into path allocates %.1f times per run, want 0", allocs)
	}
}
