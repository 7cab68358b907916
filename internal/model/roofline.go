package model

import "repro/internal/device"

// RooflinePoint is one kernel's coordinate in Fig. 10: operational
// intensity against attainable and achieved performance on a V100.
type RooflinePoint struct {
	Kernel     string
	Intensity  float64 // flop/byte
	Attainable float64 // flop/s under the roofline
	Achieved   float64 // flop/s the paper's phase efficiencies imply
	Bound      string  // "memory" or "compute"
}

// V100 ceilings used by Fig. 10.
const (
	v100DP    = 7.0e12  // double-precision peak per GPU
	v100TC    = 120e12  // Tensor Core half-precision peak
	v100L2BW  = 2.15e12 // L2 cache bandwidth (bytes/s)
	v100HBMBW = 0.9e12  // HBM2 bandwidth (bytes/s)
)

// Phase efficiencies achieved by DaCe OMEN on Summit, read off Table 11
// (achieved Pflop/s over machine peak for the participating nodes): where
// the paper's GF and SSE phases sit under their rooflines.
const (
	EffRGF = 0.7222 // 72.22% of peak: near the HPL ceiling
	EffSSE = 0.2587 // 25.87% of peak: memory-bound small matmuls
)

// Roofline evaluates the Fig. 10 points for the given structure.
//
//   - RGF works on bs×bs blocks: 8·bs³ flops over ~3·16·bs² bytes of
//     operands per multiply → intensity ≈ bs/6 flop/byte: compute-bound.
//   - SSE-64 multiplies Norb×Norb blocks streamed from batches: intensity
//     ≈ Norb/6: far left of the ridge, memory-bound (the batch fits in L2,
//     so the L2 bandwidth is the operative ceiling).
//   - SSE-16 halves the bytes per element, doubling intensity, but the
//     Tensor-Core ridge point moves right even faster — still
//     memory-bound (§7.3).
func Roofline(p device.Params) []RooflinePoint {
	bs := float64(p.Na) * float64(p.Norb) / float64(p.Bnum)
	norb := float64(p.Norb)

	mk := func(name string, oi, ceilFlops, bw, achieved float64) RooflinePoint {
		att := bw * oi
		bound := "memory"
		if att > ceilFlops {
			att = ceilFlops
			bound = "compute"
		}
		return RooflinePoint{Kernel: name, Intensity: oi, Attainable: att, Achieved: achieved, Bound: bound}
	}
	return []RooflinePoint{
		mk("RGF", bs/6, v100DP, v100HBMBW, EffRGF*v100DP),
		mk("SSE-64", norb/6, v100DP, v100L2BW, EffSSE*v100DP),
		mk("SSE-16", norb/3, v100TC, v100L2BW, EffSSE*v100DP*41.91/36.16),
	}
}
