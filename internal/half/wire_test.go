package half

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestWireRoundTripAccuracy: encode/decode of well-scaled data must be a
// near-identity — the per-segment power-of-two normalization leaves only
// the binary16 rounding of each value, ≤ 2^-11 relative to the segment
// magnitude.
func TestWireRoundTripAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const seg = 8
	for _, scale := range []float64{1, 1e-9, 1e9, 1e-300} {
		src := make([]complex128, 5*seg)
		for i := range src {
			src[i] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
		}
		got := WireDecode(WireEncode(src, seg), seg)
		if len(got) != len(src) {
			t.Fatalf("scale %g: decoded %d values, want %d", scale, len(got), len(src))
		}
		for s := 0; s < len(src); s += seg {
			segMax := MaxAbsComplex(src[s : s+seg])
			for i := s; i < s+seg; i++ {
				dRe := math.Abs(real(got[i]) - real(src[i]))
				dIm := math.Abs(imag(got[i]) - imag(src[i]))
				if bound := segMax * math.Ldexp(1, -11); dRe > bound || dIm > bound {
					t.Fatalf("scale %g elem %d: %v -> %v (bound %g)", scale, i, src[i], got[i], bound)
				}
			}
		}
	}
}

// TestWireVolumeReduction: the encoded length must match WireWords, a
// ≥2.6× reduction for the electron block unit (Norb=2).
func TestWireVolumeReduction(t *testing.T) {
	for _, tc := range []struct{ seg, count int }{{8, 12}, {54, 3}, {2, 6}, {5, 4}} {
		src := make([]complex128, tc.seg*tc.count)
		for i := range src {
			src[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		wire := WireEncode(src, tc.seg)
		if want := tc.count * wireWords(tc.seg); len(wire) != want {
			t.Errorf("seg %d: wire length %d, want %d", tc.seg, len(wire), want)
		}
	}
	// The exchange units: 2·Norb² = 8 at Norb 2 → 8/3; the phonon unit
	// 2·9·(Nb+1) = 54 at Nb 2 → 54/15.
	if r := 8.0 / float64(wireWords(8)); r < 2.6 {
		t.Errorf("electron unit reduction %g < 2.6", r)
	}
	if r := 54.0 / float64(wireWords(54)); r < 3.5 {
		t.Errorf("phonon unit reduction %g < 3.5", r)
	}
}

// TestWireFallbackFP64: segments whose normalization factor cannot be
// represented ship verbatim — the dynamic fp64 fallback of the mixed
// exchange. A subnormal-magnitude segment (scale would overflow float64)
// and a segment carrying Inf must both round-trip exactly, while a
// well-scaled neighbour segment in the same message still packs to half.
func TestWireFallbackFP64(t *testing.T) {
	const seg = 4
	tiny := math.Ldexp(1, -1060) // ScaleFor would need 2^1070: overflows
	src := []complex128{
		// Segment 0: pathological (subnormal magnitudes).
		complex(tiny, -tiny), complex(2*tiny, 0), 0, complex(0, tiny),
		// Segment 1: ordinary values.
		1 + 2i, -3 + 0.5i, 0.25i, 7,
		// Segment 2: non-finite data.
		complex(math.Inf(1), 1), 1 + 1i, complex(0, math.NaN()), 2,
		// Segment 3: NaN with otherwise finite magnitudes — must still
		// take the verbatim path, not canonicalize through binary16.
		complex(math.NaN(), 0.5), 1 - 1i, 3 + 4i, -2,
	}
	wire := WireEncode(src, seg)
	got := WireDecode(wire, seg)
	if len(got) != len(src) {
		t.Fatalf("decoded %d values, want %d", len(got), len(src))
	}
	for i := 0; i < seg; i++ { // fallback segment: bit-exact
		if got[i] != src[i] {
			t.Errorf("fallback elem %d: %v != %v", i, got[i], src[i])
		}
	}
	for i := seg; i < 2*seg; i++ { // half segment: rounded
		if d := math.Abs(real(got[i])-real(src[i])) + math.Abs(imag(got[i])-imag(src[i])); d > 0.01 {
			t.Errorf("half elem %d: %v -> %v", i, src[i], got[i])
		}
	}
	for i := 2 * seg; i < len(src); i++ { // non-finite segments: verbatim
		if got[i] != src[i] && !isNaNC(got[i]) {
			t.Errorf("non-finite elem %d: %v != %v", i, got[i], src[i])
		}
	}
	// The NaN segment's finite values must be bit-exact, which only the
	// fp64 path provides (3+4i would survive binary16, -2 and 1-1i too,
	// but 0.5 paired with NaN in one complex forces the whole segment).
	if got[3*seg+2] != complex(3, 4) || got[3*seg+3] != complex(-2, 0) {
		t.Errorf("NaN segment quantized its finite values: %v %v", got[3*seg+2], got[3*seg+3])
	}
	// Message length: three fp64 segments (1+seg words) + one half segment.
	if want := 3*(1+seg) + wireWords(seg); len(wire) != want {
		t.Errorf("wire length %d, want %d", len(wire), want)
	}
}

func isNaNC(v complex128) bool {
	return math.IsNaN(real(v)) || math.IsNaN(imag(v))
}

// TestWireRoundTripProperty: quick-check over random segment shapes and
// magnitudes — decode(encode(x)) preserves every finite value within the
// segment-relative half-ulp bound, for any segment length.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seg := 1 + rng.Intn(16)
		count := 1 + rng.Intn(8)
		mag := math.Ldexp(1, rng.Intn(120)-60)
		src := make([]complex128, seg*count)
		for i := range src {
			src[i] = complex(mag*rng.NormFloat64(), mag*rng.NormFloat64())
		}
		got := WireDecode(WireEncode(src, seg), seg)
		if len(got) != len(src) {
			return false
		}
		for s := 0; s < len(src); s += seg {
			bound := MaxAbsComplex(src[s:s+seg]) * math.Ldexp(1, -11)
			for i := s; i < s+seg; i++ {
				if math.Abs(real(got[i])-real(src[i])) > bound ||
					math.Abs(imag(got[i])-imag(src[i])) > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWireEmptyAndValidation: empty payloads are free; misuse panics.
func TestWireEmptyAndValidation(t *testing.T) {
	if got := WireEncode(nil, 4); len(got) != 0 {
		t.Errorf("empty payload encoded to %d words", len(got))
	}
	if got := WireDecode(nil, 4); len(got) != 0 {
		t.Errorf("empty wire decoded to %d values", len(got))
	}
	expectPanic(t, "ragged payload", func() { WireEncode(make([]complex128, 5), 4) })
	expectPanic(t, "bad segment", func() { WireEncode(make([]complex128, 4), 0) })
	expectPanic(t, "truncated wire", func() { WireDecode([]complex128{complex(1, 0)}, 8) })
}

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// FuzzWireRoundTrip drives the codec with arbitrary magnitudes including
// the fallback boundary; the invariant is the per-segment error bound or
// exact passthrough.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(1.0, 2.0, 1e-300, 4.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(math.Inf(1), 1.0, -5e-324, 65504.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		src := []complex128{complex(a, b), complex(c, d)}
		got := WireDecode(WireEncode(src, 2), 2)
		if len(got) != 2 {
			t.Fatalf("decoded %d values", len(got))
		}
		mx := MaxAbsComplex(src)
		if math.IsInf(mx, 0) || math.IsNaN(mx) {
			return // fallback segment: NaN payloads need not compare equal
		}
		bound := mx * math.Ldexp(1, -11)
		for i := range src {
			if math.Abs(real(got[i])-real(src[i])) > bound ||
				math.Abs(imag(got[i])-imag(src[i])) > bound {
				t.Fatalf("elem %d: %v -> %v (bound %g)", i, src[i], got[i], bound)
			}
		}
	})
}
