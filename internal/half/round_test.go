package half

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refRound is binary16 rounding in float64 arithmetic, written apart from
// round's bit arithmetic: x rounded to nearest, ties to even, at the
// binary16 precision of its magnitude — 2^(e−10) for a normal of binary
// exponent e ≥ −14, 2^-24 below — with a result of 2^16 or more becoming
// ±Inf. For every float32 x both scalings are exact.
func refRound(x float64) float64 {
	e := int(math.Float64bits(x)>>52&0x7ff) - 1023 // a float32 is no float64 subnormal
	e = max(e, -14)
	r := math.RoundToEven(x*pow2(10-e)) * pow2(e-10)
	if math.Abs(r) >= 0x1p16 {
		return math.Copysign(math.Inf(1), x)
	}
	return r
}

// pow2 is 2^k for a normal float64 2^k.
func pow2(k int) float64 { return math.Float64frombits(uint64(1023+k) << 52) }

// refDecode is the value of the binary16 pattern h from its fields.
func refDecode(h Float16) float64 {
	sign, exp, mant := 1.0, int(h>>10&0x1f), float64(h&0x3ff)
	if h&0x8000 != 0 {
		sign = -1
	}
	switch exp {
	case 0x1f:
		if mant != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	case 0:
		return sign * mant * 0x1p-24
	}
	return sign * math.Ldexp(1024+mant, exp-25)
}

// refQuantize is Quantize's contract: saturate to ±maxValue, round to
// float32, then to binary16.
func refQuantize(x float64) float64 {
	if x > maxValue {
		x = maxValue
	} else if x < -maxValue {
		x = -maxValue
	}
	return refRound(float64(float32(x)))
}

// sameBits reports whether a and b are the same float64, NaNs of any
// payload counting as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// matchReference fails t unless fromFloat32 rounds the float32 pattern b as
// refRound does (a NaN to the quiet NaN pattern) and Quantize rounds x as
// refQuantize does.
func matchReference(t *testing.T, b uint32, x float64) bool {
	f := math.Float32frombits(b)
	h, want := fromFloat32(f), refRound(float64(f))
	if math.IsNaN(want) && h&0x7fff != 0x7e00 || !math.IsNaN(want) && !sameBits(h.Float64(), want) {
		t.Errorf("fromFloat32(%#08x) = %#04x (%g), reference %g", b, h, h.Float64(), want)
		return false
	}
	if x != float64(f) || math.Abs(x) > maxValue { // else refQuantize(x) is want
		want = refQuantize(x)
	}
	if got := Quantize(x); !sameBits(got, want) {
		t.Errorf("Quantize(%#016x) = %#016x, reference %#016x", math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		return false
	}
	return true
}

// TestRoundingMatchesReference holds the conversions to an independent
// float64 reference: every binary16 pattern widens to its value and packs
// back to itself; every float32 pattern, both signs, of the biased
// exponents where rounding changes form (101–113: underflow, subnormals
// and the first normal binade; 141–143: the last binade and overflow)
// rounds as refRound does through fromFloat32 and Quantize; and so does a
// seeded sample of all float32 patterns, each also widened to a float64
// with random low mantissa bits, which Quantize rounds to float32 first.
// All 2^32 float32 patterns agree too, a sweep left out of the suite.
func TestRoundingMatchesReference(t *testing.T) {
	for i := range 1 << 16 {
		h := Float16(i)
		want := refDecode(h)
		if got := h.Float64(); !sameBits(got, want) {
			t.Fatalf("(%#04x).Float64() = %g, reference %g", i, got, want)
		}
		if back := fromFloat32(h.toFloat32()); back != h && !(math.IsNaN(want) && back == h&0x8000|0x7e00) {
			t.Fatalf("%#04x packs back to %#04x", i, back)
		}
	}
	for _, e := range []uint32{101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 141, 142, 143} {
		for _, sign := range []uint32{0, 1 << 31} {
			for m := range uint32(1 << 23) {
				b := sign | e<<23 | m
				if !matchReference(t, b, float64(math.Float32frombits(b))) {
					return
				}
			}
		}
	}
	r := rand.New(rand.NewPCG(16, 32))
	for range 1 << 20 {
		b := r.Uint32()
		x := float64(math.Float32frombits(b))
		if e := b >> 23 & 0xff; e != 0 && e != 255 {
			x = math.Float64frombits(math.Float64bits(x) | r.Uint64()&(1<<29-1))
		}
		if !matchReference(t, b, x) {
			return
		}
	}
}
