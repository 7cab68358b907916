package main

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/batch"
	"repro/internal/linalg"
)

func randomBatch(rng *rand.Rand, n, count int, scale float64) []complex128 {
	b := make([]complex128, n*n*count)
	for i := range b {
		b[i] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
	}
	return b
}

// referenceBatch computes the batched product with linalg.GEMM as the
// oracle.
func referenceBatch(a, b []complex128, n, count int) []complex128 {
	c := make([]complex128, n*n*count)
	stride := n * n
	for t := 0; t < count; t++ {
		am := linalg.FromSlice(n, n, a[t*stride:(t+1)*stride])
		bm := linalg.FromSlice(n, n, b[t*stride:(t+1)*stride])
		linalg.GEMM(1, am, linalg.NoTrans, bm, linalg.NoTrans, 0, linalg.FromSlice(n, n, c[t*stride:(t+1)*stride]))
	}
	return c
}

func batchDiff(a, b []complex128) float64 {
	var mx float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestSBSMMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, count int }{{1, 1}, {3, 7}, {12, 50}, {16, 16}, {5, 200}} {
		a := randomBatch(rng, tc.n, tc.count, 1)
		b := randomBatch(rng, tc.n, tc.count, 1)
		c := make([]complex128, len(a))
		sbsmm(c, a, b, tc.n, tc.count)
		want := referenceBatch(a, b, tc.n, tc.count)
		if d := batchDiff(c, want); d > 1e-12 {
			t.Fatalf("n=%d count=%d: diff %g", tc.n, tc.count, d)
		}
	}
}

func TestSBSMMAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, count := 4, 6
	a := randomBatch(rng, n, count, 1)
	b := randomBatch(rng, n, count, 1)
	c := make([]complex128, n*n*count)
	sbsmm(c, a, b, n, count)
	sbsmm(c, a, b, n, count) // accumulate a second time
	want := referenceBatch(a, b, n, count)
	for i := range want {
		want[i] *= 2
	}
	if d := batchDiff(c, want); d > 1e-12 {
		t.Fatalf("accumulation broken: %g", d)
	}
}

func TestSBSMMPaddedMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 5, 12, 16} {
		count := 40
		a := randomBatch(rng, n, count, 1)
		b := randomBatch(rng, n, count, 1)
		c1 := make([]complex128, len(a))
		c2 := make([]complex128, len(a))
		sbsmm(c1, a, b, n, count)
		sbsmmPadded(c2, a, b, n, count)
		if d := batchDiff(c1, c2); d > 1e-12 {
			t.Fatalf("n=%d: padded result differs by %g", n, d)
		}
	}
	if paddedFlops(10) != 8*16*16*16*10 {
		t.Fatal("paddedFlops wrong")
	}
	// The paper's Table 9 useful-ops ratio for Norb=12: (12/16)³ ≈ 42%
	// of the padded kernel's arithmetic... but cuBLAS pads more
	// aggressively; our model captures the direct 16-padding only.
	ratio := float64(batch.UsefulFlops(12, 1)) / float64(paddedFlops(1))
	if math.Abs(ratio-0.421875) > 1e-12 {
		t.Fatalf("useful ratio = %g", ratio)
	}
}

func TestSBSMMPaddedRejectsOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n > padSize")
		}
	}()
	n := padSize + 1
	buf := make([]complex128, n*n)
	sbsmmPadded(buf, buf, buf, n, 1)
}

func TestSBSMMIdentityProperty(t *testing.T) {
	// Multiplying a batch by batched identity matrices returns the batch.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		count := 1 + rng.Intn(20)
		a := randomBatch(rng, n, count, 1)
		id := make([]complex128, n*n*count)
		for t := 0; t < count; t++ {
			for i := 0; i < n; i++ {
				id[t*n*n+i*n+i] = 1
			}
		}
		c := make([]complex128, len(a))
		sbsmm(c, a, id, n, count)
		return batchDiff(c, a) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLengthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short buffer")
		}
	}()
	sbsmm(make([]complex128, 3), make([]complex128, 4), make([]complex128, 4), 2, 1)
}
