package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
)

// atLevels calls f once per dispatch level the host has (simdLevels:
// avx512, avx2, go) with the kernels lowered to that level for the call,
// and restores the detected level even when f fails the test. A check whose
// reference is costly computes it once and compares every level's result
// inside f.
func atLevels(f func(level string)) {
	for _, level := range simdLevels() {
		func() {
			defer lowerLevel(level)()
			f(level)
		}()
	}
}

// atEachLevel runs f as one subtest or sub-benchmark per level (atLevels)
// and logs the levels run — an AVX2-only host runs no zmm body, and says
// so.
func atEachLevel[T interface {
	testing.TB
	Run(string, func(T)) bool
}](t T, f func(T)) {
	t.Helper()
	atLevels(func(level string) { t.Run(level, f) })
	t.Logf("levels: %s", strings.Join(simdLevels(), " "))
}

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

// TestVecAddMulMatchesGo pins the dispatched VecAddMul at every level
// (zmm body, two vectors per trip and a one-vector tail; the ymm body's
// likewise; the scalar tail) bitwise against the portable loop over the
// lengths around every tail boundary: every n up to 17, so n mod 8 and the
// remainders the zmm body leaves all occur.
func TestVecAddMulMatchesGo(t *testing.T) {
	atEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 129, 1000, 4099} {
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
	})
}

// TestVecAddMulSignedZeros runs every combination of ±0 and ±1 in the six
// real components of (dst, s, src) through the vector body and through the
// scalar tail at every level and compares with the expression the kernel
// stands for. A kernel that negated the factor and subtracted, fused the
// multiply, or signed the wrong lanes of a zmm, fails here.
func TestVecAddMulSignedZeros(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1}
	var cases []complex128
	for _, re := range vals {
		for _, im := range vals {
			cases = append(cases, complex(re, im))
		}
	}
	atEachLevel(t, func(t *testing.T) {
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
	})
}

// TestVecAddMulFuzz throws random lengths, unaligned sub-slices and special
// values at the kernel at every level and checks that it matches the
// portable loop and writes nothing outside dst.
func TestVecAddMulFuzz(t *testing.T) {
	atEachLevel(t, func(t *testing.T) {
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
	})
}

func TestVecAddMulLengthMismatchPanics(t *testing.T) {
	expectPanic(t, "VecAddMul", func() { VecAddMul(make([]complex128, 3), make([]complex128, 4), 1) })
}

// vecAddMul3x2Want is the stencil step VecAddMul3x2 stands for, as the
// six VecAddMul calls it replaces: direction j — rows j and 3+j — skipped
// when both its weights are zero.
func vecAddMul3x2Want(dst *[6][]complex128, pl, pg []complex128, c *[6]complex128) {
	for j := 0; j < 3; j++ {
		if c[j] == 0 && c[3+j] == 0 {
			continue
		}
		VecAddMul(dst[j], pl, c[j])
		VecAddMul(dst[3+j], pg, c[3+j])
	}
}

// stencilSpecials are the values the stencil's skip rule and its rounding
// are told apart by: −0 parts, both infinities and NaNs whose sign and
// payload a kernel must carry through.
var stencilSpecials = []complex128{
	complex(math.Copysign(0, -1), math.Copysign(0, -1)), complex(math.Copysign(0, -1), 1),
	complex(math.Inf(1), 2), complex(-3, math.Inf(-1)),
	complex(math.Float64frombits(0x7ff8_0000_0000_1234), 1), complex(-1, math.Float64frombits(0xfff8_0000_00ab_cdef)),
}

// stencilWeights are the weight sets VecAddMul3x2 runs with, drawn from
// rng: random; a zero weight whose partner is not zero (no skip); −0
// weights; each direction skipped alone; all three skipped; non-finite
// weights.
func stencilWeights(rng *rand.Rand) [][6]complex128 {
	negZero := complex(math.Copysign(0, -1), 0)
	draw := func() (c [6]complex128) {
		copy(c[:], randVec(rng, 6))
		return c
	}
	sets := [][6]complex128{draw(), draw()}
	c := draw()
	c[1], c[3] = 0, complex(0, math.Copysign(0, -1))
	sets = append(sets, c)
	c = draw()
	c[0], c[4], c[2] = negZero, negZero, negZero
	sets = append(sets, c)
	for j := 0; j < 3; j++ {
		c = draw()
		c[j], c[3+j] = 0, negZero
		sets = append(sets, c)
	}
	sets = append(sets, [6]complex128{})
	c = draw()
	c[2], c[4] = complex(math.Inf(1), 0), complex(0, math.NaN())
	return append(sets, c)
}

// stencilLayout places six rows and the two sources of n elements each in
// one buffer, every slice starting up to three elements past the end of
// the one before it and the buffer ending in a three-element guard, so the
// slices' alignment varies and a stray write lands in a gap.
type stencilLayout struct {
	offs [8]int
	n    int
}

// newStencilLayout draws a layout for n and a buffer for it: randVec
// values with stencilSpecials sprinkled in.
func newStencilLayout(rng *rand.Rand, n int) (stencilLayout, []complex128) {
	l := stencilLayout{n: n}
	end := 0
	for i := range l.offs {
		l.offs[i] = end + rng.Intn(4)
		end = l.offs[i] + n
	}
	buf := randVec(rng, end+3)
	for i := range buf {
		if rng.Intn(6) == 0 {
			buf[i] = stencilSpecials[rng.Intn(len(stencilSpecials))]
		}
	}
	return l, buf
}

// rows returns the layout's slices of buf: the six rows, then pl and pg.
func (l stencilLayout) rows(buf []complex128) (dst [6][]complex128, pl, pg []complex128) {
	cut := func(i int) []complex128 { return buf[l.offs[i] : l.offs[i]+l.n : l.offs[i]+l.n] }
	for r := range dst {
		dst[r] = cut(r)
	}
	return dst, cut(6), cut(7)
}

// stencilSame compares VecAddMul3x2's output with the six VecAddMul calls
// at level: bit for bit, NaN signs and payloads included, at the assembly
// levels, where both run the same instructions in the same operand order;
// NaN for NaN (sameBits) at the Go level, where a caller may inline its
// own copy of the portable loop and the compiler may swap a commutative
// multiply's operands in each copy, which decides which of two NaN
// operands survives (it does on 386).
func stencilSame(level string, x, y complex128) bool {
	if level == "go" {
		return sameBits(x, y)
	}
	return bitwiseEqual(x, y)
}

// vecAddMul3x2Run runs VecAddMul3x2 at every level (atLevels) on one
// drawn layout of n elements per weight set of stencilWeights, and fails on
// the first element of the buffer — gaps, sources and guard included —
// that differs from the six VecAddMul calls at the same level
// (stencilSame).
func vecAddMul3x2Run(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	l, buf := newStencilLayout(rng, n)
	for _, c := range stencilWeights(rng) {
		atLevels(func(level string) {
			want := append([]complex128(nil), buf...)
			dst, pl, pg := l.rows(want)
			vecAddMul3x2Want(&dst, pl, pg, &c)
			got := append([]complex128(nil), buf...)
			dst, pl, pg = l.rows(got)
			VecAddMul3x2(&dst, pl, pg, &c)
			for i := range want {
				if !stencilSame(level, got[i], want[i]) {
					t.Fatalf("%s: n=%d offsets %v weights %v elem %d: fused %v != six VecAddMul %v", level, n, l.offs, c, i, got[i], want[i])
				}
			}
		})
	}
}

// vecAddMul3x2Ns are the row lengths that reach every split of the zmm
// body and the tail the wrapper hands to vecAddMul: 0–17 (n mod 4 and
// n mod 8 all occur, with none, one and several whole vectors), 31 and 33
// either side of a multiple of eight, and 48.
var vecAddMul3x2Ns = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33, 48}

// TestVecAddMul3x2MatchesVecAddMul pins the fused stencil step at every
// level bitwise against the six VecAddMul calls it replaces, over
// vecAddMul3x2Ns, unaligned slices, ±0, ±Inf and NaN (payload bits
// compared at the assembly levels), zero weights and the skip of a
// direction.
func TestVecAddMul3x2MatchesVecAddMul(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range vecAddMul3x2Ns {
		vecAddMul3x2Run(t, rng, n)
	}
	t.Logf("levels: %s", strings.Join(simdLevels(), " "))
}

// TestVecAddMul3x2Skip states the skip rule without reference to any
// kernel, at every level: a direction whose two weights are ±0 leaves its
// −0 rows alone although its sources hold an Inf and a NaN, while a
// direction with one zero weight adds its 0·Inf = NaN.
func TestVecAddMul3x2Skip(t *testing.T) {
	negZero := complex(math.Copysign(0, -1), math.Copysign(0, -1))
	const n = 9
	atEachLevel(t, func(t *testing.T) {
		var dst [6][]complex128
		for r := range dst {
			dst[r] = make([]complex128, n)
			for k := range dst[r] {
				dst[r][k] = negZero
			}
		}
		pl, pg := make([]complex128, n), make([]complex128, n)
		for k := range pl {
			pl[k], pg[k] = complex(math.Inf(1), 1), complex(math.NaN(), -1)
		}
		c := [6]complex128{0, 0, 1, complex(math.Copysign(0, -1), 0), 2, 0}
		VecAddMul3x2(&dst, pl, pg, &c)
		for k := 0; k < n; k++ {
			if !bitwiseEqual(dst[0][k], negZero) || !bitwiseEqual(dst[3][k], negZero) {
				t.Fatalf("elem %d: skipped direction 0 was written: %v, %v", k, dst[0][k], dst[3][k])
			}
			if !cmplx.IsNaN(dst[1][k]) || !cmplx.IsNaN(dst[4][k]) {
				t.Fatalf("elem %d: direction 1 (weights 0 and 2) skipped: %v, %v", k, dst[1][k], dst[4][k])
			}
			if want := negZero + 1*pl[k]; !bitwiseEqual(dst[2][k], want) {
				t.Fatalf("elem %d: row 2 = %v, want %v", k, dst[2][k], want)
			}
		}
	})
}

func TestVecAddMul3x2LengthMismatchPanics(t *testing.T) {
	x := make([]complex128, 8)
	dst := [6][]complex128{x, x, x, x, x, x[:7]}
	var c [6]complex128
	expectPanic(t, "VecAddMul3x2", func() { VecAddMul3x2(&dst, x, x, &c) })
	dst[5] = x
	expectPanic(t, "VecAddMul3x2", func() { VecAddMul3x2(&dst, x, x[:7], &c) })
}

// FuzzVecAddMul3x2 extends TestVecAddMul3x2MatchesVecAddMul to any row
// length up to 300 and any layout: at every level the fused step must
// equal the six VecAddMul calls (stencilSame).
func FuzzVecAddMul3x2(f *testing.F) {
	for i, n := range []uint16{0, 3, 4, 9, 17, 48, 177} {
		f.Add(n, int64(i))
	}
	f.Fuzz(func(t *testing.T, n uint16, seed int64) {
		vecAddMul3x2Run(t, rand.New(rand.NewSource(seed)), int(n)%301)
		t.Logf("levels: %s", strings.Join(simdLevels(), " "))
	})
}

// TestSumMul3x4MatchesGo pins the dispatched Π contraction kernel at every
// level bitwise against the portable loops: pre-seeded accumulators, block
// sizes of Norb = 1…5, step counts around one and around the zmm body's
// pairs of steps, unaligned operands, special values.
func TestSumMul3x4MatchesGo(t *testing.T) {
	atEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, k := range []int{0, 1, 2, 4, 9, 16, 25} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 33} {
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
	})
}

// TestSumMul3x4IsSumOfRoundedTraces states the kernel's contract without
// reference to either implementation, at every level: each step's product
// is completed from zero before it is added, in step order.
func TestSumMul3x4IsSumOfRoundedTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const k, n = 4, 7
	x := [3][]complex128{randVec(rng, k*n), randVec(rng, k*n), randVec(rng, k*n)}
	y := randVec(rng, 4*k*n)
	var want [12]complex128
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
	atEachLevel(t, func(t *testing.T) {
		var got [12]complex128
		SumMul3x4(&got, x[0], x[1], x[2], y, k, n)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("acc[%d]: got %v want %v", i, got[i], want[i])
			}
		}
	})
}

func TestSumMul3x4ShortOperandPanics(t *testing.T) {
	var acc [12]complex128
	x := make([]complex128, 8)
	expectPanic(t, "SumMul3x4", func() { SumMul3x4(&acc, x, x, x[:7], make([]complex128, 32), 4, 2) })
	expectPanic(t, "SumMul3x4", func() { SumMul3x4(&acc, x, x, x, make([]complex128, 31), 4, 2) })
}

// smallBatchRun runs smallBatchGo and, at every level (atLevels), the
// dispatched row-panel kernel on copies of one operand set drawn from rng —
// C[t] (m×n) = A[t] (m×k) · B[t] (k×n) under mode — and fails on the first
// element, C's guard tail included, where they differ. Square blocks under
// SmallBatch's two modes go through SmallBatch itself. The operands are randVec values with exact
// zeros of both signs sprinkled into A, −0 into C and ±Inf/NaN into B;
// each buffer starts up to three elements into its allocation, so no
// operand is 32-byte aligned.
func smallBatchRun(t *testing.T, rng *rand.Rand, m, n, k, count, aStride, bStride, mode int) {
	t.Helper()
	const guard = 3
	la, lb, lc := m*k, k*n, m*n
	span := func(stride, bl int) int {
		if count == 0 {
			return bl
		}
		return (count-1)*stride + bl
	}
	sprinkle := func(v []complex128, vals ...complex128) []complex128 {
		for i := range v {
			if rng.Intn(5) == 0 {
				v[i] = vals[rng.Intn(len(vals))]
			}
		}
		return v
	}
	negZero := math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	offA, offB, offC := rng.Intn(4), rng.Intn(4), rng.Intn(4)
	a := sprinkle(randVec(rng, offA+span(aStride, la)), 0, complex(negZero, 0), complex(0, negZero), complex(negZero, negZero))[offA:]
	b := sprinkle(randVec(rng, offB+span(bStride, lb)), complex(inf, 1), complex(-inf, 0), complex(0, inf), complex(nan, 0), complex(1, nan))[offB:]
	c := sprinkle(randVec(rng, offC+count*lc+guard), complex(negZero, negZero), complex(negZero, 1))[offC:]
	want := append([]complex128(nil), c...)
	smallBatchGo(want[:count*lc], a, b, m, n, k, count, aStride, bStride, mode)
	atLevels(func(level string) {
		got := append([]complex128(nil), c...)
		switch {
		case m == n && n == k && (mode == 0 || mode == rowFromC|rowSkipZero):
			SmallBatch(got[:count*lc], a, b, n, count, aStride, bStride, mode != 0)
		case count > 0:
			smallBatch(got[:count*lc], a, b, m, n, k, count, aStride, bStride, mode)
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: m=%d n=%d k=%d count=%d strides %d/%d mode=%d elem %d: dispatched %v != portable %v",
					level, m, n, k, count, aStride, bStride, mode, i, got[i], want[i])
			}
		}
	})
}

// rowPanelNs are the row lengths that reach every slice combination of the
// row-panel kernel — zmm slices of four complex, the last masked to the
// n mod 4 columns left, at AVX-512; ymm slices of two, then an xmm one,
// below n = 4 and at AVX2 — with none, one and several full slices:
// n mod 4 ∈ {0, 1, 2, 3} below four and above, the SSE tile's 12 and 18,
// and 47 and 48, rows of many zmm slices.
var rowPanelNs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 18, 47, 48}

// TestSmallBatchMatchesGo pins the dispatched row-panel kernel at every
// level (its zmm slices over row groups of eight, four and two, its ymm
// and xmm slices over row pairs, the odd last row paired with itself)
// bitwise against the portable loop: every square n the SSE tile could
// meet up to 13 and those of rowPanelNs under both SmallBatch contracts,
// with empty, single and longer batches, fixed A, fixed B, both strided
// with B wider than n²; then rectangular m×k·k×n blocks, m from 1 to 17
// (every combination of the groups' tails) plus 24 and 64, n from
// rowPanelNs, under all four mode combinations, GEMM's rowFromC-alone
// included, over special values that separate them.
func TestSmallBatchMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range append([]int{10, 11}, rowPanelNs...) {
		bl := n * n
		for _, count := range []int{0, 1, 7} {
			for _, s := range [][2]int{{0, bl}, {0, 5*bl + 3}, {bl, 0}, {bl, bl}, {bl + 2, 3*bl + 1}} {
				for _, mode := range []int{0, rowFromC | rowSkipZero} {
					smallBatchRun(t, rng, n, n, n, count, s[0], s[1], mode)
				}
			}
		}
	}
	ms := []int{24, 64}
	for m := 1; m <= 17; m++ {
		ms = append(ms, m)
	}
	for _, m := range ms {
		for _, n := range rowPanelNs {
			for _, k := range []int{1, 2, 5, 13} {
				la, lb := m*k, k*n
				for _, count := range []int{1, 3} {
					for _, s := range [][2]int{{0, lb}, {la, 0}, {la + 1, 2*lb + 3}} {
						for mode := 0; mode <= rowFromC|rowSkipZero; mode++ {
							smallBatchRun(t, rng, m, n, k, count, s[0], s[1], mode)
						}
					}
				}
			}
		}
	}
	t.Logf("levels: %s", strings.Join(simdLevels(), " "))
}

// TestSmallBatchContracts states the two modes without reference to either
// implementation, at every level, on the inputs that tell them apart: a
// zero of A facing an Inf in B, and a −0 already in C — 2×2 blocks for the
// ymm slices, 4×4 for one zmm slice.
func TestSmallBatchContracts(t *testing.T) {
	negZero := complex(math.Copysign(0, -1), math.Copysign(0, -1))
	atEachLevel(t, func(t *testing.T) {
		for _, n := range []int{2, 4} {
			a := make([]complex128, n*n)
			a[1] = 2 // every row of A but the first is zero
			b := make([]complex128, n*n)
			for i := range b {
				b[i] = complex(float64(i+1), 0)
			}
			b[0] = complex(math.Inf(1), 0) // row 0 of B holds an Inf
			for _, acc := range []bool{false, true} {
				c := make([]complex128, n*n)
				for i := range c {
					c[i] = negZero
				}
				SmallBatch(c, a, b, n, 1, 0, 0, acc)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						s := complex128(0)
						if acc {
							s = negZero
						}
						for p := 0; p < n; p++ {
							if av := a[i*n+p]; !acc || av != 0 {
								s += av * b[p*n+j]
							}
						}
						if got := c[i*n+j]; !sameBits(got, s) {
							t.Fatalf("n=%d acc=%v elem (%d,%d): got %v want %v", n, acc, i, j, got, s)
						}
					}
				}
			}
		}
	})
}

// FuzzSmallBatch extends TestSmallBatchMatchesGo to any block shape —
// m (up to 40, so several groups of eight and every tail), n and k drawn
// apart, square blocks going through SmallBatch itself — batch length,
// stride layout and mode: at every level the dispatched kernel must equal
// the portable loop bit for bit.
func FuzzSmallBatch(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), uint8(5), int64(1))
	f.Add(uint8(3), uint8(3), uint8(3), uint8(1), int64(2))
	f.Add(uint8(4), uint8(4), uint8(4), uint8(9), int64(3))
	f.Add(uint8(12), uint8(12), uint8(12), uint8(2), int64(4))
	f.Add(uint8(15), uint8(6), uint8(13), uint8(3), int64(5))
	f.Add(uint8(39), uint8(24), uint8(1), uint8(1), int64(6))
	f.Fuzz(func(t *testing.T, m, n, k, count uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		mm, nn, kk, cnt := 1+int(m)%40, 1+int(n)%25, 1+int(k)%25, int(count)%17
		la, lb := mm*kk, kk*nn
		aStrides := []int{0, la, la + rng.Intn(2*la+1)}
		bStrides := []int{0, lb, lb + rng.Intn(2*lb+1)}
		smallBatchRun(t, rng, mm, nn, kk, cnt, aStrides[rng.Intn(3)], bStrides[rng.Intn(3)], rng.Intn(rowFromC|rowSkipZero+1))
		t.Logf("levels: %s", strings.Join(simdLevels(), " "))
	})
}

func TestSmallBatchShortOperandPanics(t *testing.T) {
	x := make([]complex128, 8)
	expectPanic(t, "SmallBatch", func() { SmallBatch(x[:7], x[:4], x, 2, 2, 0, 4, false) })
	expectPanic(t, "SmallBatch", func() { SmallBatch(x, x[:4], x[:7], 2, 2, 0, 4, true) })
	expectPanic(t, "SmallBatch", func() { SmallBatch(x, x, x, 2, 2, 5, 0, true) })
}

// BenchmarkSmallBatch times the stage-❶ shape of the SSE tile at every
// level: one fixed n×n left operand against a batch of 64 blocks spaced
// 6·n² apart.
func BenchmarkSmallBatch(b *testing.B) {
	atEachLevel(b, func(b *testing.B) {
		for _, n := range []int{2, 3, 4, 12} {
			b.Run("n="+itoa(n), func(b *testing.B) {
				const count = 64
				rng := rand.New(rand.NewSource(27))
				bl := n * n
				a, src := randMat(rng, 1, bl).Data, randMat(rng, 1, 6*bl*count).Data
				c := make([]complex128, bl*count)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					SmallBatch(c, a, src, n, count, 0, 6*bl, false)
				}
				b.ReportMetric(float64(8*bl*n*count)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	})
}

// BenchmarkVecAddMul times the ω-stencil's rows at every level: len =
// bl·w for a block of bl = Norb² elements and a window of w energies —
// 4·{20, 28, 31} (Norb 2, NE 24 and 32) and 16·{8, 11} (Norb 4, NE 12).
func BenchmarkVecAddMul(b *testing.B) {
	atEachLevel(b, func(b *testing.B) {
		for _, n := range []int{80, 112, 124, 128, 176} {
			b.Run("len="+itoa(n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(25))
				src, dst := randMat(rng, 1, n).Data, randMat(rng, 1, n).Data
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					VecAddMul(dst, src, complex(1e-3, -1e-3))
				}
				b.ReportMetric(float64(8*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	})
}

// BenchmarkSumMul3x4 times the Π contraction at every level: k = Norb² of
// 4 and 16, n = 8 and 28 energies in a window.
func BenchmarkSumMul3x4(b *testing.B) {
	atEachLevel(b, func(b *testing.B) {
		for _, k := range []int{4, 16} {
			for _, n := range []int{8, 28} {
				b.Run("k="+itoa(k)+"/n="+itoa(n), func(b *testing.B) {
					rng := rand.New(rand.NewSource(29))
					x0, x1, x2 := randMat(rng, 1, k*n).Data, randMat(rng, 1, k*n).Data, randMat(rng, 1, k*n).Data
					y := randMat(rng, 1, 4*k*n).Data
					var acc [12]complex128
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						SumMul3x4(&acc, x0, x1, x2, y, k, n)
					}
					b.ReportMetric(float64(96*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	})
}
