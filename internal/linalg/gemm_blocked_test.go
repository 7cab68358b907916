package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// referenceGEMM computes C = alpha·op(A)·op(B) + beta·C through the
// retained gemmStripe reference, materializing transposed operands so the
// stripe always sees natural orientation. This is the bit-identity oracle:
// the blocked kernel must reproduce it exactly.
func referenceGEMM(alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix) {
	am, bm := a, b
	switch opA {
	case Trans:
		am = a.T()
	case ConjTrans:
		am = a.H()
	}
	switch opB {
	case Trans:
		bm = b.T()
	case ConjTrans:
		bm = b.H()
	}
	gemmStripe(alpha, am, bm, beta, c, 0, c.Rows)
}

// runBlocked drives the packed driver, under its compiled-in blocking,
// through the same degenerate-shape entry logic as GEMM, bypassing the
// stripe shortcut so small problems exercise the packed kernel too.
func runBlocked(alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix) {
	runTiled(gemmMC, gemmKC, gemmNC, alpha, a, opA, b, opB, beta, c)
}

// runTiled is runBlocked under an explicit cache blocking.
func runTiled(mc, kc, nc int, alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix) {
	m, n := c.Rows, c.Cols
	var k int
	if opA == NoTrans {
		k = a.Cols
	} else {
		k = a.Rows
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		scaleInPlace(c, beta)
		return
	}
	pb := packPool.Get().(*packBuf)
	gemmTiled(mc, kc, nc, alpha, a, opA, b, opB, beta, c, pb, 0, m)
	packPool.Put(pb)
}

func bitwiseEqual(x, y complex128) bool {
	return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
		math.Float64bits(imag(x)) == math.Float64bits(imag(y))
}

func checkBitwise(t *testing.T, ctx string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if !bitwiseEqual(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d differs bitwise: got %v want %v",
				ctx, i, got.Data[i], want.Data[i])
		}
	}
}

var (
	allOps     = []Op{NoTrans, Trans, ConjTrans}
	alphaCases = []complex128{0, 1, complex(1.3, -0.7)}
	betaCases  = []complex128{0, 1, complex(0.5, 2)}
)

// makeOperands builds a, b, c for one (m, n, k, opA, opB) case, with the
// stored orientation of a and b matching the op.
func makeOperands(rng *rand.Rand, m, n, k int, opA, opB Op) (a, b, c *Matrix) {
	if opA == NoTrans {
		a = randMat(rng, m, k)
	} else {
		a = randMat(rng, k, m)
	}
	if opB == NoTrans {
		b = randMat(rng, k, n)
	} else {
		b = randMat(rng, n, k)
	}
	c = randMat(rng, m, n)
	return
}

// TestGEMMBlockedBitwiseEdgeShapes sweeps m, n, k through the register- and
// cache-tile boundaries (0, 1, tile−1, tile, tile+1 for MR=2, NR=8, KC=128,
// MC=128) and pins the blocked kernel bitwise against the stripe reference.
// Op and alpha/beta combinations rotate deterministically with the shape so
// every pairing appears across the sweep without a full cross product.
func TestGEMMBlockedBitwiseEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ms := []int{0, 1, gemmMR - 1, gemmMR, gemmMR + 1, gemmMC - 1, gemmMC, gemmMC + 1}
	ns := []int{0, 1, gemmNR - 1, gemmNR, gemmNR + 1, 31}
	ks := []int{0, 1, gemmKC - 1, gemmKC, gemmKC + 1}
	idx := 0
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				opA := allOps[idx%3]
				opB := allOps[(idx/3)%3]
				alpha := alphaCases[(idx/9)%3]
				beta := betaCases[(idx/27)%3]
				idx++
				a, b, c := makeOperands(rng, m, n, k, opA, opB)
				want := c.Clone()
				referenceGEMM(alpha, a, opA, b, opB, beta, want)
				runBlocked(alpha, a, opA, b, opB, beta, c)
				ctx := "m=" + itoa(m) + " n=" + itoa(n) + " k=" + itoa(k) +
					" op=" + opA.String() + opB.String()
				checkBitwise(t, ctx, c, want)
			}
		}
	}
	// NC-boundary cases (column blocking at 256) at a k that spans two
	// KC panels, so the not-first accumulate path runs at the NC edge too.
	for i, n := range []int{gemmNC - 1, gemmNC, gemmNC + 1} {
		a, b, c := makeOperands(rng, 64, n, gemmKC+2, allOps[i], allOps[2-i])
		want := c.Clone()
		referenceGEMM(1, a, allOps[i], b, allOps[2-i], complex(0.5, 2), want)
		runBlocked(1, a, allOps[i], b, allOps[2-i], complex(0.5, 2), c)
		checkBitwise(t, "nc-edge n="+itoa(n), c, want)
	}
}

// TestGEMMBlockedBitwiseFullCross runs every (opA, opB, alpha, beta)
// combination at one fixed shape crossing the MR and NR remainders.
func TestGEMMBlockedBitwiseFullCross(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const m, n, k = 37, 29, 33
	for _, opA := range allOps {
		for _, opB := range allOps {
			for _, alpha := range alphaCases {
				for _, beta := range betaCases {
					a, b, c := makeOperands(rng, m, n, k, opA, opB)
					want := c.Clone()
					referenceGEMM(alpha, a, opA, b, opB, beta, want)
					runBlocked(alpha, a, opA, b, opB, beta, c)
					ctx := "op=" + opA.String() + opB.String()
					checkBitwise(t, ctx, c, want)
				}
			}
		}
	}
}

// TestGEMMBlockedBitwiseFuzz throws random shapes and coefficients at the
// blocked kernel, through the public GEMM entry (so dispatch routing is
// covered) and through Workspace.GEMM (pack buffers from the workspace).
func TestGEMMBlockedBitwiseFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ws := NewWorkspace()
	for iter := 0; iter < 200; iter++ {
		m := rng.Intn(150)
		n := rng.Intn(150)
		k := rng.Intn(150)
		opA := allOps[rng.Intn(3)]
		opB := allOps[rng.Intn(3)]
		alpha := alphaCases[rng.Intn(3)]
		beta := betaCases[rng.Intn(3)]
		a, b, c := makeOperands(rng, m, n, k, opA, opB)
		want := c.Clone()
		referenceGEMM(alpha, a, opA, b, opB, beta, want)
		if iter%2 == 0 {
			GEMM(alpha, a, opA, b, opB, beta, c)
		} else {
			ws.GEMM(alpha, a, opA, b, opB, beta, c)
		}
		ctx := "iter=" + itoa(iter)
		checkBitwise(t, ctx, c, want)
	}
}

// TestGEMMParallelBitwise forces the row-partitioned parallel path by
// inflating the worker budget beyond GOMAXPROCS and checks the partitioned
// result stays bitwise identical to the serial reference — every C element
// still sees its full k sweep on one worker.
func TestGEMMParallelBitwise(t *testing.T) {
	old := SetWorkerBudget(8)
	defer SetWorkerBudget(old)
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{64, 65, 130} {
		a := randMat(rng, dim, dim)
		b := randMat(rng, dim, dim)
		c := randMat(rng, dim, dim)
		want := c.Clone()
		referenceGEMM(complex(1.1, 0.2), a, NoTrans, b, ConjTrans, complex(0.3, -1), want)
		GEMM(complex(1.1, 0.2), a, NoTrans, b, ConjTrans, complex(0.3, -1), c)
		checkBitwise(t, "parallel dim="+itoa(dim), c, want)
	}
}

// TestMicroKernelMatchesGo pins the dispatched micro-kernel (AVX2 assembly
// on capable amd64 hosts) bitwise against the portable Go tile, including
// pre-seeded accumulators and single-step panels.
func TestMicroKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, kc := range []int{1, 2, 3, 7, gemmKC} {
		ap := make([]complex128, gemmMR*kc)
		bp := make([]complex128, gemmNR*kc)
		for i := range ap {
			ap[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := range bp {
			bp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		var seed [gemmMR * gemmNR]complex128
		for i := range seed {
			seed[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got, want := seed, seed
		microKernel(kc, ap, bp, &got)
		microKernelGo(kc, ap, bp, &want)
		for i := range want {
			if !bitwiseEqual(got[i], want[i]) {
				t.Fatalf("kc=%d acc[%d]: asm %v != go %v", kc, i, got[i], want[i])
			}
		}
	}
}

// TestVecHelpersMatchGo pins the dispatched vecSubMul/vecScale (AVX2 with a
// scalar tail on odd lengths) bitwise against the portable loops.
func TestVecHelpersMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 8, 17, 64, 129} {
		src := make([]complex128, n)
		d1 := make([]complex128, n)
		d2 := make([]complex128, n)
		for i := range src {
			src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			d1[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			d2[i] = d1[i]
		}
		l := complex(rng.NormFloat64(), rng.NormFloat64())
		vecSubMul(d1, src, l)
		vecSubMulGo(d2, src, l)
		for i := range d1 {
			if !bitwiseEqual(d1[i], d2[i]) {
				t.Fatalf("vecSubMul n=%d elem %d: %v != %v", n, i, d1[i], d2[i])
			}
		}
		s := complex(rng.NormFloat64(), rng.NormFloat64())
		vecScale(d1, s)
		vecScaleGo(d2, s)
		for i := range d1 {
			if !bitwiseEqual(d1[i], d2[i]) {
				t.Fatalf("vecScale n=%d elem %d: %v != %v", n, i, d1[i], d2[i])
			}
		}
	}
}

func expectPanic(t *testing.T, ctx string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic, got none", ctx)
		}
	}()
	f()
}

// TestGEMMAliasingPanics is the regression test for the aliasing guard: the
// blocked kernel stores partial sums into C mid-sweep, so an output that
// overlaps an operand would silently corrupt the result. Both entries must
// reject it loudly instead.
func TestGEMMAliasingPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, 16, 16)
	b := randMat(rng, 16, 16)
	ws := NewWorkspace()

	expectPanic(t, "c==a", func() { GEMM(1, a, NoTrans, b, NoTrans, 0, a) })
	expectPanic(t, "c==b", func() { GEMM(1, a, NoTrans, b, NoTrans, 0, b) })
	expectPanic(t, "ws c==a", func() { ws.GEMM(1, a, NoTrans, b, NoTrans, 0, a) })
	expectPanic(t, "ws c==b", func() { ws.GEMM(1, a, NoTrans, b, NoTrans, 0, b) })

	// Partial overlap through a shared backing array.
	backing := make([]complex128, 3*16*16)
	for i := range backing {
		backing[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	a2 := &Matrix{Rows: 16, Cols: 16, Data: backing[:16*16]}
	c2 := &Matrix{Rows: 16, Cols: 16, Data: backing[8*16 : 8*16+16*16]} // overlaps a2's tail
	expectPanic(t, "partial overlap", func() { GEMM(1, a2, NoTrans, b, NoTrans, 0, c2) })

	// Disjoint views of the same backing array must pass.
	a3 := &Matrix{Rows: 16, Cols: 16, Data: backing[:16*16]}
	c3 := &Matrix{Rows: 16, Cols: 16, Data: backing[2*16*16 : 3*16*16]}
	GEMM(1, a3, NoTrans, b, NoTrans, 0, c3)
}

// TestWorkerBudgetAccounting exercises the token pool directly: reservation
// never blocks, release is idempotent, acquisition always leaves the
// caller's token behind, and SetWorkerBudget carries reservations across.
func TestWorkerBudgetAccounting(t *testing.T) {
	old := SetWorkerBudget(4)
	defer SetWorkerBudget(old)

	if got := WorkerBudget(); got != 4 {
		t.Fatalf("WorkerBudget = %d, want 4", got)
	}
	// 4 free: an unreserved caller may add up to 3 helpers.
	if got := tryAcquireWorkers(10); got != 3 {
		t.Fatalf("acquire with 4 free = %d, want 3", got)
	}
	releaseWorkers(3)
	if got := tryAcquireWorkers(2); got != 2 {
		t.Fatalf("acquire capped at max = %d, want 2", got)
	}
	releaseWorkers(2)

	// Saturate with outer-pool reservations: 3 reserved leaves 1 free,
	// which belongs to the calling goroutine — no helpers available.
	r1 := ReserveWorker()
	r2 := ReserveWorker()
	r3 := ReserveWorker()
	if got := tryAcquireWorkers(10); got != 0 {
		t.Fatalf("acquire under saturation = %d, want 0", got)
	}
	r3()
	r3() // idempotent: must not double-release
	if got := tryAcquireWorkers(10); got != 1 {
		t.Fatalf("acquire with 2 free = %d, want 1", got)
	}
	releaseWorkers(1)

	// Budget change with reservations outstanding: delta carries over.
	SetWorkerBudget(8)
	if got := tryAcquireWorkers(10); got != 5 { // 8 total − 2 reserved − 1 for caller
		t.Fatalf("acquire after budget raise = %d, want 5", got)
	}
	releaseWorkers(5)
	r1()
	r2()
	if free := budgetFree.Load(); free != 8 {
		t.Fatalf("free after all releases = %d, want 8", free)
	}
}

// TestGEMMSerialUnderSaturatedPool pins the composition contract: a GEMM
// large enough to want helpers, invoked while outer-pool reservations hold
// every token, must not take any (it runs serially on its caller) — and
// must still be bitwise correct.
func TestGEMMSerialUnderSaturatedPool(t *testing.T) {
	old := SetWorkerBudget(4)
	defer SetWorkerBudget(old)
	releases := []func(){ReserveWorker(), ReserveWorker(), ReserveWorker(), ReserveWorker()}
	defer func() {
		for _, r := range releases {
			r()
		}
	}()

	rng := rand.New(rand.NewSource(15))
	dim := 80 // 80³ > parallelThreshold: would fan out if tokens were free
	a := randMat(rng, dim, dim)
	b := randMat(rng, dim, dim)
	c := randMat(rng, dim, dim)
	want := c.Clone()
	referenceGEMM(1, a, NoTrans, b, NoTrans, 1, want)

	before := budgetFree.Load()
	GEMM(1, a, NoTrans, b, NoTrans, 1, c)
	after := budgetFree.Load()
	if before != 0 || after != 0 {
		t.Fatalf("budget leaked across saturated GEMM: free %d -> %d, want 0 -> 0", before, after)
	}
	checkBitwise(t, "saturated", c, want)
}
