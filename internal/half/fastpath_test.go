package half

import (
	"math"
	"math/rand/v2"
	"testing"
)

// quantizeSlow is Quantize through the one-case-per-class conversions.
func quantizeSlow(f float64) float64 {
	return float64(fromFloat32Slow(float32(clamp(f))).toFloat32Slow())
}

// matchSlow fails t unless the fast paths give the slow conversions'
// bits for the float32 pattern b, and Quantize for the float64 x.
func matchSlow(t *testing.T, b uint32, x float64) bool {
	f := math.Float32frombits(b)
	if got, want := fromFloat32(f), fromFloat32Slow(f); got != want {
		t.Errorf("fromFloat32(%#08x) = %#04x, slow path %#04x", b, got, want)
		return false
	}
	if got, want := Quantize(x), quantizeSlow(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Quantize(%#016x) = %#016x, slow path %#016x", math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		return false
	}
	return true
}

// TestFastPathsMatchSlow holds the bit-arithmetic fast paths of
// fromFloat32, toFloat32 and Quantize to the conversions they short-cut,
// bit for bit: every binary16 pattern; every float32 pattern, both signs,
// of the exponents within two of each boundary where the fast paths start
// or stop (underflowExp, normalExp, maxExp+1), and of exponent 0 and 255
// (zeros and float32 subnormals, Inf and NaN), each also as the float64
// Quantize takes; and a seeded sample of all float32 patterns, each
// widened to a float64 with random low mantissa bits, which Quantize
// rounds twice. All 2^32 float32 patterns agree too, a sweep of about a
// minute left out of the suite.
func TestFastPathsMatchSlow(t *testing.T) {
	for h := range 1 << 16 {
		v := Float16(h)
		if got, want := v.toFloat32(), v.toFloat32Slow(); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("toFloat32(%#04x) = %#08x, slow path %#08x", h, math.Float32bits(got), math.Float32bits(want))
		}
	}
	exps := []uint32{0, 255}
	for _, edge := range []uint32{underflowExp, normalExp, maxExp + 1} {
		exps = append(exps, edge-2, edge-1, edge, edge+1)
	}
	for _, e := range exps {
		for _, sign := range []uint32{0, 1 << 31} {
			for m := range uint32(1 << 23) {
				b := sign | e<<23 | m
				if !matchSlow(t, b, float64(math.Float32frombits(b))) {
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
		if !matchSlow(t, b, x) {
			return
		}
	}
}
