package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGEMM sweeps the square sizes that occur in the solver: Norb-sized
// SSE blocks (12), RGF blocks (32–256). The Trans/ConjTrans cases pin the
// packed path's zero-allocation property (the old kernel materialized
// b.T()/b.H() per call).
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{12, 32, 64, 128, 192, 256} {
		am := randMat(rng, n, n)
		bm := randMat(rng, n, n)
		cm := New(n, n)
		for _, op := range []Op{NoTrans, Trans, ConjTrans} {
			b.Run(fmt.Sprintf("n=%d/opB=%s", n, op), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					GEMM(1, am, NoTrans, bm, op, 0, cm)
				}
			})
		}
	}
}

// BenchmarkGEMMStripeRef measures the retained reference kernel for
// comparison with the blocked path.
func BenchmarkGEMMStripeRef(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{32, 64, 128, 256} {
		am := randMat(rng, n, n)
		bm := randMat(rng, n, n)
		cm := New(n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemmStripe(1, am, bm, 0, cm)
			}
		})
	}
}
