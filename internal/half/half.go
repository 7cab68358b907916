// Package half implements IEEE 754 binary16 ("half precision") arithmetic
// in software, together with the split-complex half-precision tensor format
// used by the mixed-precision SSE kernel (§5.4 of the paper).
//
// On Summit the paper runs the Σ≷ accumulation on V100 Tensor Cores, which
// consume fp16 inputs and accumulate in higher precision. This package is
// the CPU-side stand-in: values are stored as 16-bit patterns with exactly
// the binary16 range and rounding, arithmetic happens by converting through
// float32, and out-of-range values saturate to ±MaxValue exactly like the
// clamping step the paper applies before feeding Tensor Cores.
package half

import "math"

// Float16 is an IEEE 754 binary16 value stored as its bit pattern.
type Float16 uint16

// maxValue is the largest finite binary16 value (65504).
const maxValue = 65504.0

// The float32 biased exponents at which a binary16 conversion changes
// form: below underflowExp a value rounds to a signed zero, from
// normalExp through maxExp it is a binary16 normal before rounding (or
// rounds up to ±Inf at maxExp), and in between it is a subnormal.
const (
	underflowExp = 127 - 15 - 10 // 102
	normalExp    = 127 - 15 + 1  // 113
	maxExp       = 127 + 15      // 142
)

// fromFloat32 converts f to binary16 with round-to-nearest-even.
// Overflows become ±Inf (use clamp before conversion to saturate instead).
// Normal-range values and underflows take bit arithmetic: the rebias and
// the round to nearest even on bit 13, whose carry rolls into the
// exponent (and at maxExp into the Inf pattern); subnormals, Inf and NaN
// take fromFloat32Slow.
func fromFloat32(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	switch e := b >> 23 & 0xff; {
	case e-normalExp <= maxExp-normalExp:
		abs := b & 0x7fffffff
		return Float16(sign | uint16((abs-(normalExp-1)<<23+0xfff+abs>>13&1)>>13))
	case e < underflowExp:
		return Float16(sign)
	}
	return fromFloat32Slow(f)
}

// fromFloat32Slow is fromFloat32 for every class of value, one case each.
func fromFloat32Slow(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	mant := b & 0x7fffff

	switch {
	case exp >= 0x1f:
		// Overflow or already Inf/NaN.
		if int32(b>>23&0xff) == 0xff && mant != 0 {
			return Float16(sign | 0x7e00) // NaN
		}
		return Float16(sign | 0x7c00) // Inf
	case exp <= 0:
		// Subnormal or zero in half precision.
		if exp < -10 {
			return Float16(sign) // underflow to signed zero
		}
		mant |= 0x800000 // implicit leading 1
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := mant + half
		// Round to nearest even.
		if rounded&(half<<1-1) == half && mant&(1<<shift) == 0 {
			rounded = mant
		}
		return Float16(sign | uint16(rounded>>shift))
	default:
		// Normal number: round mantissa from 23 to 10 bits, nearest even.
		rounded := mant + 0xfff + (mant>>13)&1
		if rounded&0x800000 != 0 {
			rounded = 0
			exp++
			if exp >= 0x1f {
				return Float16(sign | 0x7c00)
			}
		}
		return Float16(sign | uint16(exp)<<10 | uint16(rounded>>13))
	}
}

// toFloat32 converts h back to float32 exactly: a normal by rebiasing its
// exponent in place, a signed zero as its sign; subnormals, Inf and NaN
// take toFloat32Slow.
func (h Float16) toFloat32() float32 {
	sign := uint32(h&0x8000) << 16
	abs := uint32(h & 0x7fff)
	switch {
	case abs-0x400 < 0x7c00-0x400:
		return math.Float32frombits(sign | (abs<<13 + (normalExp-1)<<23))
	case abs == 0:
		return math.Float32frombits(sign)
	}
	return h.toFloat32Slow()
}

// toFloat32Slow is toFloat32 for every class of value, one case each.
func (h Float16) toFloat32Slow() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// fromFloat64 converts through float32.
func fromFloat64(f float64) Float16 { return fromFloat32(float32(f)) }

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
// a Tensor-Core input register would hold. A normal-range value is
// rounded in place in float32 — the binary16 round trip keeps the
// exponent and clears the 13 low mantissa bits, rounded to nearest even —
// and an underflow is a signed zero; subnormals and NaN take the round
// trip.
func Quantize(f float64) float64 {
	g := float32(clamp(f))
	b := math.Float32bits(g)
	switch e := b >> 23 & 0xff; {
	case e-normalExp <= maxExp-normalExp:
		return float64(math.Float32frombits((b + 0xfff + b>>13&1) &^ 0x1fff))
	case e < underflowExp:
		return float64(math.Float32frombits(b & 0x80000000))
	}
	return fromFloat32(g).Float64()
}
