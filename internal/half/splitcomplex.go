package half

import "math"

// SplitComplex stores a batch of complex values in split format: all real
// parts contiguous, then all imaginary parts, each as binary16. This is the
// layout the paper converts tensors into before using Tensor Cores
// ("transforming the tensors to split-complex format — contiguous real
// followed by imaginary values").
type SplitComplex struct {
	N  int
	Re []Float16
	Im []Float16
}

// NewSplitComplex allocates storage for n complex values.
func NewSplitComplex(n int) *SplitComplex {
	return &SplitComplex{N: n, Re: make([]Float16, n), Im: make([]Float16, n)}
}

// EncodeScaled stores src[i]*scale into the split-complex buffer with
// binary16 rounding and saturation. scale is the normalization factor from
// §5.4, chosen from the magnitude of the source tensor so the values land
// inside the fp16 dynamic range.
func (s *SplitComplex) EncodeScaled(src []complex128, scale float64) {
	if len(src) != s.N {
		panic("half: EncodeScaled length mismatch")
	}
	for i, v := range src {
		s.Re[i] = fromFloat64(clamp(real(v) * scale))
		s.Im[i] = fromFloat64(clamp(imag(v) * scale))
	}
}

// ScaleFor returns a power-of-two normalization factor that maps the
// largest magnitude in vals near the top of the fp16 range while leaving
// headroom for accumulation. Power-of-two scaling is exact in binary
// floating point, so normalize/denormalize introduces no extra rounding.
func ScaleFor(maxAbs float64) float64 {
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		return 1
	}
	// Target magnitude ~2^10 = 1024: far from overflow (65504) and far
	// from the subnormal floor, preserving ~21 bits of headroom below.
	exp := 10 - int(math.Ceil(math.Log2(maxAbs)))
	return math.Ldexp(1, exp)
}

// MaxAbsComplex returns the largest |Re| or |Im| over vals, the magnitude
// statistic the normalization factors are computed from.
func MaxAbsComplex(vals []complex128) float64 {
	var mx float64
	for _, v := range vals {
		if a := math.Abs(real(v)); a > mx {
			mx = a
		}
		if a := math.Abs(imag(v)); a > mx {
			mx = a
		}
	}
	return mx
}
