package repro

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bc"
	"repro/internal/blocktri"
	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/rgf"
	"repro/internal/sse"
)

// Ablation benchmarks for the paper's design choices: the SSE
// schedule (regrouped transients vs naive), the atom-level parallelism,
// the boundary-condition caching of §7.1.2, and the RGF-vs-dense solver
// crossover that motivates the recursive algorithm.

// ── SSE worker scaling (the map-parallelism of the SDFG) ──

func benchSSEWorkers(b *testing.B, workers int) {
	in := benchInput()
	// The atom pool is min(GOMAXPROCS, atoms); 0 leaves the host's value.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = (sse.DaCe{}).Compute(in)
	}
}

func BenchmarkAblation_SSEWorkers1(b *testing.B) { benchSSEWorkers(b, 1) }
func BenchmarkAblation_SSEWorkers2(b *testing.B) { benchSSEWorkers(b, 2) }
func BenchmarkAblation_SSEWorkers4(b *testing.B) { benchSSEWorkers(b, 4) }
func BenchmarkAblation_SSEWorkersAll(b *testing.B) {
	benchSSEWorkers(b, 0) // GOMAXPROCS
}

// ── Boundary-condition caching (§7.1.2, Fig. 9 cache modes) ──

func benchGFCacheMode(b *testing.B, mode bc.Mode) {
	dev := benchDevice()
	opts := negf.DefaultOptions()
	opts.CacheMode = mode
	s := negf.New(dev, opts)
	if err := s.GFPhase(); err != nil { // warm the cache (if any)
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.GFPhase(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_GFNoCache(b *testing.B) { benchGFCacheMode(b, bc.NoCache) }
func BenchmarkAblation_GFCacheBC(b *testing.B) { benchGFCacheMode(b, bc.CacheBC) }

// ── RGF vs dense inversion (why the recursive solver exists) ──

func rgfProblem(nb, bs int) *rgf.Problem {
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, nb)
	for i := range sizes {
		sizes[i] = bs
	}
	// A well-conditioned Hermitian-plus-broadening system.
	h := func(n int) *linalg.Matrix {
		m := linalg.New(n, n)
		for i := range m.Data {
			m.Data[i] = complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64())
		}
		linalg.Hermitize(m, m)
		return m
	}
	m := blocktri.New(sizes)
	for i := range m.Diag {
		m.Diag[i] = h(sizes[i])
		for r := 0; r < sizes[i]; r++ {
			m.Diag[i].Set(r, r, m.Diag[i].At(r, r)+complex(0.8, 0.05))
		}
		if i+1 < len(sizes) {
			m.Upper[i] = linalg.Scale(linalg.New(sizes[i], sizes[i+1]), 0.3, h(sizes[i]))
			m.Lower[i] = m.Upper[i].H()
		}
	}
	return &rgf.Problem{
		A:    m,
		SigL: make([]*linalg.Matrix, nb),
		SigG: make([]*linalg.Matrix, nb),
	}
}

func BenchmarkAblation_RGF8x24(b *testing.B) {
	p := rgfProblem(8, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgf.SolveInto(p, linalg.NewWorkspace(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DenseInverse8x24(b *testing.B) {
	p := rgfProblem(8, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := rgf.DenseReference(p); err != nil {
			b.Fatal(err)
		}
	}
}

// ── Core dense kernels ──

func randomDense(n int) *linalg.Matrix {
	rng := rand.New(rand.NewSource(2))
	m := linalg.New(n, n)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func BenchmarkLinalg_Inverse128(b *testing.B) {
	x := randomDense(128)
	for i := 0; i < 128; i++ {
		x.Set(i, i, x.At(i, i)+20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.Inverse(x); err != nil {
			b.Fatal(err)
		}
	}
}
