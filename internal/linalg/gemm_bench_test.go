package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// gemmSweep is the square block sizes the benchmark devices multiply: 8
// and 12 (dist_schedules, qtd_tenants), 12 and 18 (iv_sse_bound), 48 and
// 64 (iv_gf_bound), plus 32, 128 and 256 around and above them.
var gemmSweep = []int{8, 12, 18, 32, 48, 64, 128, 256}

// BenchmarkGEMM sweeps gemmSweep over the right operand's three ops, then
// times the RGF forward-pass shape, −U·g≷ᴴ added into C (alpha = −1,
// opB = ConjTrans, beta = 1). Every row must report 0 allocs/op: the
// Trans/ConjTrans operands are consumed through pooled buffers, never
// materialized per call.
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range gemmSweep {
		am := randMat(rng, n, n)
		bm := randMat(rng, n, n)
		cm := New(n, n)
		run := func(name string, alpha complex128, op Op, beta complex128) {
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					GEMM(alpha, am, NoTrans, bm, op, beta, cm)
				}
				b.ReportMetric(8*float64(n*n*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
		for _, op := range []Op{NoTrans, Trans, ConjTrans} {
			run("opB="+op.String(), 1, op, 0)
		}
		run("rgf", -1, ConjTrans, 1)
	}
}
