package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// specials are the values rounding and sign bugs hide behind: both zeros,
// a subnormal, and magnitudes whose products overflow or underflow.
var specials = []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, -3e-310, 1e300, -1e300, 1e-300}

// randVec fills n values; about one component in six is a special.
func randVec(rng *rand.Rand, n int) []complex128 {
	part := func() float64 {
		if rng.Intn(6) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(part(), part())
	}
	return v
}

// sameBits is bitwiseEqual with every NaN equal to every other: which
// payload an addition of two NaNs keeps is not part of the contract.
func sameBits(x, y complex128) bool {
	eq := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	return eq(real(x), real(y)) && eq(imag(x), imag(y))
}

// TestVecAddMulMatchesGo pins the dispatched VecAddMul (AVX2 body, two
// vectors per trip, one-vector and scalar tails) bitwise against the
// portable loop over the lengths around every tail boundary.
func TestVecAddMulMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 64, 129, 1000, 4099} {
		src := randVec(rng, n)
		got := randVec(rng, n)
		want := append([]complex128(nil), got...)
		s := randVec(rng, 1)[0]
		VecAddMul(got, src, s)
		vecAddMulGo(want, src, s)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d elem %d: dispatched %v != portable %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestVecAddMulSignedZeros runs every combination of ±0 and ±1 in the six
// real components of (dst, s, src) through the vector body and through the
// scalar tail and compares with the expression the kernel stands for. A
// kernel that negated the factor and subtracted, or fused the multiply,
// fails here.
func TestVecAddMulSignedZeros(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1}
	var cases []complex128
	for _, re := range vals {
		for _, im := range vals {
			cases = append(cases, complex(re, im))
		}
	}
	for _, s := range cases {
		// 16×16 (dst, src) pairs plus one so the last lands in the tail.
		var dst, src []complex128
		for _, d := range cases {
			for _, v := range cases {
				dst, src = append(dst, d), append(src, v)
			}
		}
		dst, src = append(dst, cases[5]), append(src, cases[7])
		want := make([]complex128, len(dst))
		for i := range dst {
			want[i] = dst[i] + s*src[i]
		}
		VecAddMul(dst, src, s)
		for i := range want {
			if !bitwiseEqual(dst[i], want[i]) {
				t.Fatalf("s=%v elem %d: got %v want %v", s, i, dst[i], want[i])
			}
		}
	}
}

// TestVecAddMulFuzz throws random lengths, unaligned sub-slices and special
// values at the kernel and checks that it matches the portable loop and
// writes nothing outside dst.
func TestVecAddMulFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 400; iter++ {
		n := rng.Intn(300)
		offD, offS := rng.Intn(4), rng.Intn(4)
		bufD := randVec(rng, n+offD+3)
		bufS := randVec(rng, n+offS+3)
		want := append([]complex128(nil), bufD...)
		s := randVec(rng, 1)[0]
		VecAddMul(bufD[offD:offD+n], bufS[offS:offS+n], s)
		vecAddMulGo(want[offD:offD+n], bufS[offS:offS+n], s)
		for i := range want {
			if !sameBits(bufD[i], want[i]) {
				t.Fatalf("iter %d n=%d off=%d/%d elem %d: got %v want %v", iter, n, offD, offS, i, bufD[i], want[i])
			}
		}
	}
}

func TestVecAddMulLengthMismatchPanics(t *testing.T) {
	expectPanic(t, "VecAddMul", func() { VecAddMul(make([]complex128, 3), make([]complex128, 4), 1) })
}

// TestSumMul3x4MatchesGo pins the dispatched Π contraction kernel bitwise
// against the portable loops: pre-seeded accumulators, block sizes of
// Norb = 1…5, step counts around one, unaligned operands, special values.
func TestSumMul3x4MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{0, 1, 2, 4, 9, 16, 25} {
		for _, n := range []int{0, 1, 2, 5, 33} {
			off := rng.Intn(3)
			x0, x1, x2 := randVec(rng, k*n+off)[off:], randVec(rng, k*n+off)[off:], randVec(rng, k*n+off)[off:]
			y := randVec(rng, 4*k*n+off)[off:]
			var got, want [12]complex128
			copy(got[:], randVec(rng, 12))
			want = got
			SumMul3x4(&got, x0, x1, x2, y, k, n)
			sumMul3x4Go(&want, x0, x1, x2, y, k, n)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("k=%d n=%d acc[%d]: dispatched %v != portable %v", k, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSumMul3x4IsSumOfRoundedTraces states the kernel's contract without
// reference to either implementation: each step's product is completed
// from zero before it is added, in step order.
func TestSumMul3x4IsSumOfRoundedTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const k, n = 4, 7
	x := [3][]complex128{randVec(rng, k*n), randVec(rng, k*n), randVec(rng, k*n)}
	y := randVec(rng, 4*k*n)
	var got, want [12]complex128
	for e := 0; e < n; e++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				var tr complex128
				for p := 0; p < k; p++ {
					tr += x[i][e*k+p] * y[(e*k+p)*4+j]
				}
				want[i*4+j] += tr
			}
		}
	}
	SumMul3x4(&got, x[0], x[1], x[2], y, k, n)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("acc[%d]: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestSumMul3x4ShortOperandPanics(t *testing.T) {
	var acc [12]complex128
	x := make([]complex128, 8)
	expectPanic(t, "SumMul3x4", func() { SumMul3x4(&acc, x, x, x[:7], make([]complex128, 32), 4, 2) })
	expectPanic(t, "SumMul3x4", func() { SumMul3x4(&acc, x, x, x, make([]complex128, 31), 4, 2) })
}

func BenchmarkVecAddMul(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	src, dst := randMat(rng, 1, 128).Data, randMat(rng, 1, 128).Data
	b.ReportAllocs()
	b.SetBytes(128 * 16)
	for i := 0; i < b.N; i++ {
		VecAddMul(dst, src, complex(1e-3, -1e-3))
	}
}
