package linalg

import (
	"math"
	"math/rand"
	"runtime"
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
	gemmStripe(alpha, am, bm, beta, c)
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
	_, k := opDims(a, opA)
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		scaleInPlace(c, beta)
		return
	}
	pb := packPool.Get().(*packBuf)
	gemmTiled(mc, kc, nc, alpha, a, opA, b, opB, beta, c, pb)
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

// TestGEMMParallelBitwise: products issued concurrently from the workers
// of one ParallelFor — the only parallelism a GEMM ever sees — draw their
// packing panels from the shared packPool and still each reproduce the
// serial reference bitwise, at and above the largest block a benchmark
// device has, on and off the register-tile grid.
func TestGEMMParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alpha, beta := complex(1.1, 0.2), complex(0.3, -1)
	type problem struct{ a, b, c, want *Matrix }
	var problems []problem
	for rep := 0; rep < 8; rep++ {
		for _, dim := range []int{64, 65, 130} {
			p := problem{a: randMat(rng, dim, dim), b: randMat(rng, dim, dim), c: randMat(rng, dim, dim)}
			p.want = p.c.Clone()
			referenceGEMM(alpha, p.a, NoTrans, p.b, ConjTrans, beta, p.want)
			problems = append(problems, p)
		}
	}
	err := ParallelFor(len(problems), 8, func() func(int) error {
		return func(i int) error {
			p := problems[i]
			GEMM(alpha, p.a, NoTrans, p.b, ConjTrans, beta, p.c)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range problems {
		checkBitwise(t, "problem "+itoa(i)+" dim="+itoa(p.c.Rows), p.c, p.want)
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

// peakGoroutines runs f while a monitor samples runtime.NumGoroutine and
// returns the highest count seen above the level before f started, the
// monitor itself excluded. Goroutines that live only inside f — a kernel
// fan-out joined before the kernel returns — show up here and nowhere in
// a before/after comparison.
func peakGoroutines(f func()) int {
	base := runtime.NumGoroutine()
	stop, peak := make(chan struct{}), make(chan int)
	go func() {
		top := 0
		for {
			select {
			case <-stop:
				peak <- top
				return
			default:
				top = max(top, runtime.NumGoroutine())
				runtime.Gosched()
			}
		}
	}()
	f()
	close(stop)
	return <-peak - base - 1
}

// TestGEMMSerialUnderSaturatedPool pins the composition contract: a GEMM
// runs on its caller's goroutine. An 80³ product — larger than any block a
// benchmark device has — starts no goroutine from an idle top level, and
// inside a ParallelFor the only goroutines are the loop's own workers;
// both are bitwise correct.
func TestGEMMSerialUnderSaturatedPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // idle Ps: room to spread, if a kernel tried
	rng := rand.New(rand.NewSource(15))
	const dim, reps, workers = 80, 40, 2
	a := randMat(rng, dim, dim)
	b := randMat(rng, dim, dim)
	seed := randMat(rng, dim, dim)
	want := seed.Clone()
	referenceGEMM(1, a, NoTrans, b, NoTrans, 1, want)

	outs := make([]*Matrix, reps)
	reset := func() {
		for i := range outs {
			outs[i] = seed.Clone()
		}
	}

	reset()
	if extra := peakGoroutines(func() {
		for _, c := range outs {
			GEMM(1, a, NoTrans, b, NoTrans, 1, c)
		}
	}); extra > 0 {
		t.Errorf("top-level GEMM ran beside %d goroutines it started, want 0", extra)
	}
	for _, c := range outs {
		checkBitwise(t, "top level", c, want)
	}

	reset()
	var err error
	if extra := peakGoroutines(func() {
		err = ParallelFor(reps, workers, func() func(int) error {
			return func(i int) error {
				GEMM(1, a, NoTrans, b, NoTrans, 1, outs[i])
				return nil
			}
		})
	}); extra > workers {
		t.Errorf("GEMMs inside a %d-worker ParallelFor ran beside %d goroutines, want at most the workers", workers, extra)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range outs {
		checkBitwise(t, "in pool", c, want)
	}
}

// leastMallocs returns the fewest heap allocations any one of runs calls
// of f made. It stands in for testing.AllocsPerRun where that cannot
// measure the property: AllocsPerRun pins GOMAXPROCS to 1, and its average
// charges the call for every buffer sync.Pool chooses to drop (a quarter
// of all Puts under -race). A call that always allocates still reads > 0.
func leastMallocs(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestGEMMAllocFreeAtEverySize is the CI allocation guard's property as a
// test: with at least two Ps to spread over, GEMM and Workspace.GEMM
// allocate nothing at any size of the benchmark sweep, for natural and
// transposed operands alike — there is no size above which a product
// stops being a plain call.
func TestGEMMAllocFreeAtEverySize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	rng := rand.New(rand.NewSource(16))
	ws := NewWorkspace()
	for _, n := range []int{12, 32, 64, 128, 256} {
		a, b, c := randMat(rng, n, n), randMat(rng, n, n), New(n, n)
		for _, op := range []Op{NoTrans, Trans, ConjTrans} {
			if got := leastMallocs(10, func() { GEMM(1, a, NoTrans, b, op, 0, c) }); got != 0 {
				t.Errorf("GEMM n=%d opB=%s: %d allocs per call, want 0", n, op, got)
			}
			if got := leastMallocs(10, func() { ws.GEMM(1, a, NoTrans, b, op, 0, c) }); got != 0 {
				t.Errorf("Workspace.GEMM n=%d opB=%s: %d allocs per call, want 0", n, op, got)
			}
		}
	}
}
