package batch

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/half"
	"repro/internal/linalg"
)

func randomBatch(rng *rand.Rand, n, count int, scale float64) []complex128 {
	b := make([]complex128, n*n*count)
	for i := range b {
		b[i] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
	}
	return b
}

// referenceBatch computes the batched product with linalg as the oracle.
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

func maxDiff(a, b []complex128) float64 {
	var mx float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestFlopAccounting(t *testing.T) {
	if UsefulFlops(12, 10) != 8*12*12*12*10 {
		t.Fatal("UsefulFlops wrong")
	}
}

// encodeUnnormalized quantizes without scaling — the ablation the paper
// uses in Fig. 7 to show that normalization is what preserves convergence.
func encodeUnnormalized(a []complex128, n, count int) *HalfBatch {
	buf := half.NewSplitComplex(len(a))
	buf.EncodeScaled(a, 1)
	return &HalfBatch{N: n, Count: count, buf: buf, scale: 1}
}

func TestSBSMMHalfNormalizedAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, count := 12, 32
	// Small-magnitude inputs, as the SSE Green's functions are: without
	// normalization they would be crushed by fp16.
	a := randomBatch(rng, n, count, 2e-6)
	b := randomBatch(rng, n, count, 2e-6)
	want := referenceBatch(a, b, n, count)

	c := make([]complex128, len(a))
	SBSMMHalf(c, EncodeHalf(a, n, count), EncodeHalf(b, n, count))

	// Relative error of the normalized fp16 path should be ~2^-10.
	var num, den float64
	for i := range want {
		num += cmplx.Abs(c[i] - want[i])
		den += cmplx.Abs(want[i])
	}
	rel := num / den
	if rel > 5e-3 {
		t.Fatalf("normalized fp16 relative error too high: %g", rel)
	}

	// Without normalization the same inputs lose everything.
	c2 := make([]complex128, len(a))
	SBSMMHalf(c2, encodeUnnormalized(a, n, count), encodeUnnormalized(b, n, count))
	var num2 float64
	for i := range want {
		num2 += cmplx.Abs(c2[i] - want[i])
	}
	if num2/den < 10*rel {
		t.Fatalf("expected unnormalized path to be much worse (norm %g vs %g)", num2/den, rel)
	}
}

// TestSBSMMHalfErrorBoundVsSeq: the analytic forward-error bound of the
// normalized fp16 path against the exact fp64 batch. Each decoded
// operand entry carries at most ε₁₆ = 2^-11 relative error against the
// batch magnitude (power-of-two normalization is exact, accumulation is
// fp64), so every output entry of an n×n product obeys
//
//	|ĉ − c| ≤ 4·n·ε₁₆·maxA·maxB   (4: two operands × complex re/im pair)
//
// across random batches of every size the SSE uses, and magnitudes from
// deep-subnormal to large.
func TestSBSMMHalfErrorBoundVsSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eps := math.Ldexp(1, -11)
	for _, tc := range []struct {
		n, count int
		scale    float64
	}{
		{2, 64, 1}, {5, 40, 1e-9}, {12, 32, 1e3}, {16, 16, 1e-6}, {25, 8, 4e-14},
	} {
		a := randomBatch(rng, tc.n, tc.count, tc.scale)
		b := randomBatch(rng, tc.n, tc.count, tc.scale)
		want := referenceBatch(a, b, tc.n, tc.count)

		got := make([]complex128, len(a))
		SBSMMHalf(got, EncodeHalf(a, tc.n, tc.count), EncodeHalf(b, tc.n, tc.count))

		maxA, maxB := maxAbsEntry(a), maxAbsEntry(b)
		bound := 4 * float64(tc.n) * eps * maxA * maxB
		var worst float64
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > worst {
				worst = d
			}
		}
		if worst > bound {
			t.Errorf("n=%d count=%d scale=%g: error %g exceeds bound %g",
				tc.n, tc.count, tc.scale, worst, bound)
		}
		// The bound must also be doing work: the observed error should be
		// within a few orders of it, or the test asserts nothing.
		if worst < bound*1e-6 {
			t.Errorf("n=%d scale=%g: error %g suspiciously far below bound %g",
				tc.n, tc.scale, worst, bound)
		}
	}
}

func maxAbsEntry(vs []complex128) float64 {
	var mx float64
	for _, v := range vs {
		if a := math.Max(math.Abs(real(v)), math.Abs(imag(v))); a > mx {
			mx = a
		}
	}
	return mx
}

func TestSBSMMHalfMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := EncodeHalf(randomBatch(rng, 2, 3, 1), 2, 3)
	b := EncodeHalf(randomBatch(rng, 3, 3, 1), 3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on operand mismatch")
		}
	}()
	SBSMMHalf(make([]complex128, 2*2*3), a, b)
}

// TestSBSMMFixedBMatchesReference pins stage ❸ bit for bit against the
// accumulate contract written out: C += A[t]·B in ikj order, an a_ik of
// zero skipped. Seeded −0 in C, zeros in A and an Inf and a NaN in B are
// the inputs on which skipping and not skipping round differently.
func TestSBSMMFixedBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := complex(math.Copysign(0, -1), math.Copysign(0, -1))
	for _, n := range []int{2, 3, 5} {
		count := 17
		a := randomBatch(rng, n, count, 1)
		b := randomBatch(rng, n, 1, 1)
		c := randomBatch(rng, n, count, 1)
		for i := range a {
			switch rng.Intn(6) {
			case 0:
				a[i] = 0
			case 1:
				c[i] = negZero
			}
		}
		b[0], b[len(b)-1] = complex(math.Inf(-1), 1), complex(0, math.NaN())
		want := append([]complex128(nil), c...)
		SBSMMFixedB(c, a, b, n, count)
		for tt := 0; tt < count; tt++ {
			at, ct := a[tt*n*n:(tt+1)*n*n], want[tt*n*n:(tt+1)*n*n]
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					if av := at[i*n+k]; av != 0 {
						for j := 0; j < n; j++ {
							ct[i*n+j] += av * b[k*n+j]
						}
					}
				}
			}
		}
		same := func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
		}
		for e, w := range want {
			g := c[e]
			if !same(real(g), real(w)) || !same(imag(g), imag(w)) {
				t.Fatalf("n=%d elem %d: SBSMMFixedB gives %v, the skip-zero ikj sum %v", n, e, g, w)
			}
		}
	}
}

func TestSBSMMFixedBValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad B size")
		}
	}()
	SBSMMFixedB(make([]complex128, 4), make([]complex128, 4), make([]complex128, 1), 2, 1)
}

// TestSBSMMFixedAMatchesGEMMBitwise pins the stage-❶ batch kernel against
// the call it replaced, linalg.GEMM(1, A, B[t], 0, C[t]) on every block,
// bit for bit: block sizes on both sides of GEMM's packed-kernel threshold
// (n = 8), strides from dense to the tensor's Na·n², stale values in C,
// and zeros of both signs in A and B (GEMM multiplies A by alpha = 1, which
// can only flip the sign of a zero).
func TestSBSMMFixedAMatchesGEMMBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	negZero := math.Copysign(0, -1)
	sprinkle := func(v []complex128) {
		for i := range v {
			switch rng.Intn(8) {
			case 0:
				v[i] = complex(0, imag(v[i]))
			case 1:
				v[i] = complex(real(v[i]), negZero)
			case 2:
				v[i] = complex(negZero, 0)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9, 12} {
		for _, count := range []int{0, 1, 5} {
			for _, stride := range []int{n * n, n*n + 3, 6 * n * n} {
				a := randomBatch(rng, n, 1, 1)
				b := randomBatch(rng, n, 1, 1)[:0]
				for len(b) < count*stride+n*n {
					b = append(b, complex(rng.NormFloat64(), rng.NormFloat64()))
				}
				sprinkle(a)
				sprinkle(b)
				got := randomBatch(rng, n, count, 1) // stale contents must be overwritten
				SBSMMFixedA(got, a, b, n, count, stride)
				for tt := 0; tt < count; tt++ {
					want := linalg.New(n, n)
					linalg.GEMM(1, linalg.FromSlice(n, n, a), linalg.NoTrans,
						linalg.FromSlice(n, n, b[tt*stride:tt*stride+n*n]), linalg.NoTrans, 0, want)
					for e, w := range want.Data {
						g := got[tt*n*n+e]
						if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
							t.Fatalf("n=%d count=%d stride=%d block %d elem %d: %v, GEMM gives %v", n, count, stride, tt, e, g, w)
						}
					}
				}
			}
		}
	}
}

func TestSBSMMFixedAValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a B too short for the last strided block")
		}
	}()
	SBSMMFixedA(make([]complex128, 8), make([]complex128, 4), make([]complex128, 9), 2, 2, 6)
}
