package half

import (
	"math"
	"testing"
	"testing/quick"
)

// Limits of the binary16 format.
const (
	// minNormal is the smallest positive normal binary16 value (2^-14).
	minNormal = 6.103515625e-05
	// smallestNonzero is the smallest positive subnormal value (2^-24).
	smallestNonzero = 5.9604644775390625e-08
)

// isInf reports whether h is ±Inf.
func isInf(h Float16) bool { return h&0x7fff == 0x7c00 }

// isNaN reports whether h is a NaN.
func isNaN(h Float16) bool { return h&0x7c00 == 0x7c00 && h&0x3ff != 0 }

// decodeScaled reads s back into dst, multiplying by invScale (algebraic
// denormalization: "denormalization entails scaling by inverse factors").
func decodeScaled(s *SplitComplex, dst []complex128, invScale float64) {
	for i := range dst {
		dst[i] = complex(s.Re[i].Float64()*invScale, s.Im[i].Float64()*invScale)
	}
}

func TestExactValues(t *testing.T) {
	cases := []struct {
		f    float64
		bits Float16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                  // MaxValue
		{6.103515625e-05, 0x0400},        // minNormal
		{5.9604644775390625e-08, 0x0001}, // smallest subnormal
	}
	for _, c := range cases {
		if got := fromFloat64(c.f); got != c.bits {
			t.Errorf("FromFloat64(%g) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if got := c.bits.Float64(); got != c.f {
			t.Errorf("(%#04x).Float64() = %g, want %g", c.bits, got, c.f)
		}
	}
}

func TestOverflowToInf(t *testing.T) {
	h := fromFloat64(1e6)
	if !isInf(h) {
		t.Fatalf("1e6 should overflow to Inf, got %#04x (%g)", h, h.Float64())
	}
	h = fromFloat64(-1e6)
	if !isInf(h) || h.Float64() > 0 {
		t.Fatalf("-1e6 should overflow to -Inf")
	}
}

func TestNaNPropagation(t *testing.T) {
	h := fromFloat64(math.NaN())
	if !isNaN(h) {
		t.Fatal("NaN should convert to half NaN")
	}
	if !math.IsNaN(h.Float64()) {
		t.Fatal("half NaN should convert back to NaN")
	}
}

func TestUnderflowToZero(t *testing.T) {
	h := fromFloat64(1e-12)
	if h != 0 {
		t.Fatalf("1e-12 should underflow to +0, got %#04x", h)
	}
	h = fromFloat64(-1e-12)
	if h != 0x8000 {
		t.Fatalf("-1e-12 should underflow to -0, got %#04x", h)
	}
}

func TestSubnormalRange(t *testing.T) {
	// 2^-20 is subnormal in binary16 but exactly representable.
	f := math.Ldexp(1, -20)
	h := fromFloat64(f)
	if h.Float64() != f {
		t.Fatalf("2^-20 roundtrip: got %g", h.Float64())
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Conversion float16→float32→float16 must be the identity for every
	// finite half value, and half(f).Float64() must be within half an ULP.
	f := func(bits uint16) bool {
		h := Float16(bits)
		if isNaN(h) {
			return isNaN(fromFloat32(h.toFloat32()))
		}
		return fromFloat32(h.toFloat32()) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundingIsNearest(t *testing.T) {
	// The binary16 ULP at 1.0 is 2^-10; values less than half an ULP away
	// must round to 1.0.
	ulp := math.Ldexp(1, -10)
	if got := fromFloat64(1 + 0.49*ulp).Float64(); got != 1 {
		t.Fatalf("1+0.49ulp rounded to %g", got)
	}
	if got := fromFloat64(1 + 0.51*ulp).Float64(); got != 1+ulp {
		t.Fatalf("1+0.51ulp rounded to %g, want %g", got, 1+ulp)
	}
	// Ties round to even: 1 + 0.5ulp is exactly between 1 (mantissa even)
	// and 1+ulp (odd) → rounds down to 1.
	if got := fromFloat64(1 + 0.5*ulp).Float64(); got != 1 {
		t.Fatalf("tie 1+0.5ulp rounded to %g, want 1 (even)", got)
	}
}

func TestQuantizeErrorBoundProperty(t *testing.T) {
	// For in-range normal values the relative quantization error is at
	// most 2^-11 (half an ULP of a 10-bit mantissa).
	f := func(x float64) bool {
		x = math.Mod(math.Abs(x), 60000)
		if x < minNormal {
			return true
		}
		q := Quantize(x)
		return math.Abs(q-x) <= x*math.Ldexp(1, -11)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if clamp(1e9) != maxValue {
		t.Fatal("positive clamp failed")
	}
	if clamp(-1e9) != -maxValue {
		t.Fatal("negative clamp failed")
	}
	if clamp(123.0) != 123.0 {
		t.Fatal("in-range value should pass through")
	}
	if q := Quantize(1e9); q != maxValue {
		t.Fatalf("Quantize should saturate, got %g", q)
	}
}

func TestClampEdgeCases(t *testing.T) {
	// Exact boundaries saturate to themselves.
	if clamp(maxValue) != maxValue || clamp(-maxValue) != -maxValue {
		t.Fatal("boundary values must pass unchanged")
	}
	// The next float64 above the boundary clamps.
	up := math.Nextafter(maxValue, math.Inf(1))
	if clamp(up) != maxValue {
		t.Fatalf("Clamp(%g) = %g, want MaxValue", up, clamp(up))
	}
	// Infinities saturate; NaN propagates (neither comparison fires) and
	// Quantize keeps it a NaN rather than inventing a finite value.
	if clamp(math.Inf(1)) != maxValue || clamp(math.Inf(-1)) != -maxValue {
		t.Fatal("infinities must saturate")
	}
	if !math.IsNaN(clamp(math.NaN())) {
		t.Fatal("Clamp(NaN) must stay NaN")
	}
	if !math.IsNaN(Quantize(math.NaN())) {
		t.Fatal("Quantize(NaN) must stay NaN")
	}
	// Signed zeros survive.
	if math.Signbit(clamp(math.Copysign(0, -1))) != true {
		t.Fatal("Clamp must preserve -0")
	}
	// Subnormal halves quantize exactly (they are representable).
	if q := Quantize(smallestNonzero); q != smallestNonzero {
		t.Fatalf("smallest subnormal quantized to %g", q)
	}
}

// FuzzFloat16RoundTrip: for every 16-bit pattern, half→float32→half is
// the identity (NaNs stay NaNs), and float64 round-trips agree with the
// float32 path.
func FuzzFloat16RoundTrip(f *testing.F) {
	f.Add(uint16(0x0000))
	f.Add(uint16(0x8000)) // -0
	f.Add(uint16(0x0001)) // smallest subnormal
	f.Add(uint16(0x03ff)) // largest subnormal
	f.Add(uint16(0x0400)) // minNormal
	f.Add(uint16(0x7bff)) // MaxValue
	f.Add(uint16(0x7c00)) // +Inf
	f.Add(uint16(0x7e00)) // NaN
	f.Fuzz(func(t *testing.T, bits uint16) {
		h := Float16(bits)
		if isNaN(h) {
			if !isNaN(fromFloat32(h.toFloat32())) {
				t.Fatalf("%#04x: NaN lost in round trip", bits)
			}
			return
		}
		if got := fromFloat32(h.toFloat32()); got != h {
			t.Fatalf("%#04x -> %g -> %#04x", bits, h.toFloat32(), got)
		}
		if got := fromFloat64(h.Float64()); got != h {
			t.Fatalf("%#04x float64 round trip -> %#04x", bits, got)
		}
	})
}

// FuzzQuantize: quantization of any float64 saturates, never produces
// Inf from finite input, and keeps the half-ulp relative bound for
// normal-range magnitudes.
func FuzzQuantize(f *testing.F) {
	f.Add(1.5)
	f.Add(-65504.0)
	f.Add(1e-8)
	f.Add(1e300)
	f.Add(math.Inf(1))
	f.Fuzz(func(t *testing.T, x float64) {
		q := Quantize(x)
		if math.IsNaN(x) {
			if !math.IsNaN(q) {
				t.Fatalf("Quantize(NaN) = %g", q)
			}
			return
		}
		if math.Abs(q) > maxValue {
			t.Fatalf("Quantize(%g) = %g escapes the binary16 range", x, q)
		}
		if a := math.Abs(x); a >= minNormal && a <= maxValue {
			if math.Abs(q-x) > a*math.Ldexp(1, -11) {
				t.Fatalf("Quantize(%g) = %g outside half-ulp bound", x, q)
			}
		}
	})
}

func TestSplitComplexRoundTrip(t *testing.T) {
	src := []complex128{1 + 2i, -3.5 + 0.25i, 0, 1000 - 1000i}
	sc := NewSplitComplex(len(src))
	sc.EncodeScaled(src, 1)
	dst := make([]complex128, len(src))
	decodeScaled(sc, dst, 1)
	for i := range src {
		if math.Abs(real(dst[i])-real(src[i])) > math.Abs(real(src[i]))*1e-3+1e-6 ||
			math.Abs(imag(dst[i])-imag(src[i])) > math.Abs(imag(src[i]))*1e-3+1e-6 {
			t.Fatalf("roundtrip[%d]: %v -> %v", i, src[i], dst[i])
		}
	}
}

func TestScaleForPowerOfTwo(t *testing.T) {
	for _, m := range []float64{1e-9, 1e-3, 1, 7, 1e4, 3e7} {
		s := ScaleFor(m)
		// Power of two: log2 must be integral.
		l := math.Log2(s)
		if l != math.Trunc(l) {
			t.Fatalf("ScaleFor(%g) = %g is not a power of two", m, s)
		}
		scaled := m * s
		if scaled > maxValue || scaled < 256 {
			t.Fatalf("ScaleFor(%g): scaled max %g outside [256, 65504]", m, scaled)
		}
	}
	if ScaleFor(0) != 1 {
		t.Fatal("ScaleFor(0) should be the neutral factor")
	}
}

func TestNormalizationPreservesSmallValues(t *testing.T) {
	// Without normalization, values of order 1e-9 vanish in fp16; with a
	// ScaleFor-derived factor they survive with ~2^-11 relative error.
	// This is the §5.4 mechanism reproduced in miniature.
	vals := []complex128{complex(3e-9, -1e-9), complex(1e-9, 2e-9)}
	direct := NewSplitComplex(len(vals))
	direct.EncodeScaled(vals, 1)
	out := make([]complex128, len(vals))
	decodeScaled(direct, out, 1)
	if out[0] != 0 || out[1] != 0 {
		t.Fatal("expected unnormalized 1e-9 values to flush to zero in fp16")
	}
	scale := ScaleFor(MaxAbsComplex(vals))
	norm := NewSplitComplex(len(vals))
	norm.EncodeScaled(vals, scale)
	decodeScaled(norm, out, 1/scale)
	for i := range vals {
		if math.Abs(real(out[i])-real(vals[i])) > 1e-11 {
			t.Fatalf("normalized roundtrip lost value %d: %v -> %v", i, vals[i], out[i])
		}
	}
}

func TestMaxAbsComplex(t *testing.T) {
	if got := MaxAbsComplex([]complex128{1 + 2i, -7 + 0.5i, 3 - 4i}); got != 7 {
		t.Fatalf("MaxAbsComplex = %g, want 7", got)
	}
	if got := MaxAbsComplex(nil); got != 0 {
		t.Fatalf("MaxAbsComplex(nil) = %g", got)
	}
}
