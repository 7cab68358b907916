// Package half implements IEEE 754 binary16 ("half precision") arithmetic
// in software, together with the split-complex half-precision tensor format
// used by the mixed-precision SSE kernel (§5.4 of the paper).
//
// On Summit the paper runs the Σ≷ accumulation on V100 Tensor Cores, which
// consume fp16 inputs and accumulate in higher precision. This package is
// the CPU-side stand-in: values are stored as 16-bit patterns with exactly
// the binary16 range, arithmetic happens by converting through float32,
// and out-of-range values saturate to ±MaxValue exactly like the clamping
// step the paper applies before feeding Tensor Cores.
//
// There is one rounding rule, round: to the nearest binary16 value, ties to
// even, computed in the float32 domain for normals, subnormals, underflow,
// overflow and NaN alike. Quantize, EncodeScaled and the wire codec round
// through it; packing the rounded float32 into a Float16 and unpacking it
// back are exact.
package half

import "math"

// Float16 is an IEEE 754 binary16 value stored as its bit pattern.
type Float16 uint16

// maxValue is the largest finite binary16 value (65504).
const maxValue = 65504.0

// Where binary16 rounding changes form, as float32 biased exponents and
// bits: below underflowExp a value rounds to a signed zero, from normalExp
// on it is a binary16 normal before rounding, and from infFrom (65520,
// halfway between maxValue and 2^16) it rounds to ±Inf.
const (
	underflowExp = 127 - 15 - 10 // 102
	normalExp    = 127 - 15 + 1  // 113
	infFrom      = 0x477ff000
	float32Inf   = 0xff << 23
)

// roundBits drops the low s bits of x, rounding to nearest with ties to
// even: the carry of the kept part's lowest bit.
func roundBits(x, s uint32) uint32 {
	return (x + 1<<(s-1) - 1 + x>>s&1) >> s
}

// round rounds x to float32 and that to the nearest binary16 value, ties to
// even, and returns the value as a float32. A normal keeps its exponent and
// loses its 13 low mantissa bits, whose carry rolls into the exponent; a
// subnormal is its mantissa, implicit bit included, rounded to a multiple
// of 2^-24; a value up to 2^-25 becomes a signed zero, one from 65520 up
// ±Inf, and a NaN the quiet NaN. x is a float64, as every caller holds one:
// converting it here keeps a caller's loop free of a false dependency from
// one call to the next.
func round(x float64) float32 {
	b := math.Float32bits(float32(x))
	abs := b & 0x7fffffff
	switch e := abs >> 23; {
	case abs-normalExp<<23 < infFrom-normalExp<<23:
		abs = roundBits(abs, 13) << 13
	case e < underflowExp:
		abs = 0
	case e < normalExp:
		abs = math.Float32bits(float32(roundBits(abs&0x7fffff|0x800000, normalExp+13-e)) * 0x1p-24)
	case abs <= float32Inf:
		abs = float32Inf
	default:
		abs = float32Inf | 0x400000
	}
	return math.Float32frombits(b&0x80000000 | abs)
}

// pack stores r, a value round returned, as its binary16 pattern exactly.
// The conversions to binary16 are pack(round(x)), written out at each
// caller: a function of its own would not inline, and a second call per
// value slows the wire encoder.
func pack(r float32) Float16 {
	b := math.Float32bits(r)
	sign := uint16(b>>16) & 0x8000
	abs := b & 0x7fffffff
	switch {
	case abs-normalExp<<23 < float32Inf-normalExp<<23:
		return Float16(sign | uint16((abs-(normalExp-1)<<23)>>13))
	case abs < normalExp<<23:
		return Float16(sign | uint16(math.Float32frombits(abs)*0x1p24))
	}
	return Float16(sign | 0x7c00 | uint16(abs>>13&0x3ff))
}

// toFloat32 converts h back to float32 exactly: a normal by rebiasing its
// exponent in place, a subnormal or zero as its mantissa times 2^-24, Inf
// and NaN by widening the mantissa.
func (h Float16) toFloat32() float32 {
	sign := uint32(h&0x8000) << 16
	abs := uint32(h & 0x7fff)
	switch {
	case abs-0x400 < 0x7c00-0x400:
		return math.Float32frombits(sign | (abs<<13 + (normalExp-1)<<23))
	case abs < 0x400:
		return math.Float32frombits(sign | math.Float32bits(float32(abs)*0x1p-24))
	}
	return math.Float32frombits(sign | float32Inf | (abs&0x3ff)<<13)
}

// Float64 converts h to float64 exactly.
func (h Float16) Float64() float64 { return float64(h.toFloat32()) }

// clamp saturates f into the finite binary16 range [−maxValue, maxValue].
// This is the paper's out-of-range handling: "Out-of-range values are
// clamped to avoid under/overflow".
func clamp(f float64) float64 {
	if f > maxValue {
		return maxValue
	}
	if f < -maxValue {
		return -maxValue
	}
	return f
}

// Quantize rounds f through binary16 with saturation, returning the value
// a Tensor-Core input register would hold.
func Quantize(f float64) float64 { return float64(round(clamp(f))) }
