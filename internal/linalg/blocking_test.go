package linalg

import (
	"math/rand"
	"testing"
)

// TestBlockingBitwiseInvariance pins that the cache blocking is not part
// of the result: every admissible blocking produces bitwise-identical GEMM
// output, because the per-element accumulation order (ascending k, single
// accumulator) does not depend on how the loops are tiled — so the
// compiled-in sizes can be retuned without touching a golden. Exercised
// across tile-straddling shapes, all Op pairs, and deliberately awkward
// sizes (minimum legal tile, non-power-of-two, larger-than-problem).
func TestBlockingBitwiseInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	shapes := [][3]int{{7, 23, 130}, {130, 9, 7}, {65, 65, 65}}
	blockings := [][3]int{ // MC, KC, NC
		{gemmMR, 1, gemmNR},      // minimum legal: every loop degenerates
		{24, 17, 40},             // non-power-of-two, straddles the shapes
		{512, 512, 512},          // larger than every problem dimension
		{gemmMC, gemmKC, gemmNC}, // what production runs
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, opA := range allOps {
			for _, opB := range allOps {
				a, b, c0 := makeOperands(rng, m, n, k, opA, opB)
				alpha, beta := complex(1.3, -0.7), complex(0.5, 2)
				want := c0.Clone()
				referenceGEMM(alpha, a, opA, b, opB, beta, want)
				for _, bs := range blockings {
					got := c0.Clone()
					runTiled(bs[0], bs[1], bs[2], alpha, a, opA, b, opB, beta, got)
					checkBitwise(t, "blocking", got, want)
				}
			}
		}
	}
}
