package bc

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// leadBlocks builds a well-behaved periodic lead: Hermitian onsite block
// h00 and inter-cell coupling t, returning d00 = (E+iη)I − h00 and τ = −t.
func leadBlocks(rng *rand.Rand, n int, e, eta float64) (d00, tau *linalg.Matrix) {
	h00 := linalg.New(n, n)
	for i := range h00.Data {
		h00.Data[i] = complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64())
	}
	linalg.Hermitize(h00, h00)
	t := linalg.New(n, n)
	for i := range t.Data {
		t.Data[i] = complex(0.2*rng.NormFloat64(), 0.2*rng.NormFloat64())
	}
	d00 = linalg.Scale(linalg.New(n, n), -1, h00)
	for i := 0; i < n; i++ {
		d00.Set(i, i, d00.At(i, i)+complex(e, eta))
	}
	tau = linalg.Scale(linalg.New(n, n), -1, t)
	return d00, tau
}

// surfaceGF decimates on a fresh workspace.
func surfaceGF(d00, tau *linalg.Matrix) (*Result, error) {
	return SurfaceGFInto(linalg.NewWorkspace(), d00, tau)
}

func TestSurfaceGFSelfConsistency(t *testing.T) {
	// The surface GF satisfies gs = (d00 − τ·gs·τᴴ)⁻¹, i.e.
	// (d00 − τ·gs·τᴴ)·gs = I. This is the defining fixed point.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8} {
		d00, tau := leadBlocks(rng, n, 0.5, 1e-3)
		res, err := surfaceGF(d00, tau)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		eff := linalg.Sub(linalg.New(n, n), d00, linalg.Mul3(tau, res.Surface, tau.H()))
		prod := product(eff, linalg.NoTrans, res.Surface, linalg.NoTrans)
		if d := linalg.MaxDiff(prod, linalg.Eye(n)); d > 1e-7 {
			t.Fatalf("n=%d: fixed point violated by %g after %d iters", n, d, res.Iters)
		}
	}
}

func TestSigmaFromSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 4
	d00, tau := leadBlocks(rng, n, 0.2, 1e-3)
	res, err := surfaceGF(d00, tau)
	if err != nil {
		t.Fatal(err)
	}
	want := linalg.Mul3(tau, res.Surface, tau.H())
	if linalg.MaxDiff(res.SigmaR, want) > 1e-12 {
		t.Fatal("SigmaR != τ·gs·τᴴ")
	}
}

func TestGammaPositiveSemidefinite(t *testing.T) {
	// Γ = i(Σᴿ − Σᴬ) is the contact broadening; physically it must be
	// positive semidefinite (it is a rate). Check Rayleigh quotients.
	rng := rand.New(rand.NewSource(3))
	n := 6
	d00, tau := leadBlocks(rng, n, 0.0, 1e-3)
	res, err := surfaceGF(d00, tau)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.MaxDiff(res.Gamma, res.Gamma.H()) > 1e-9 {
		t.Fatal("Γ not Hermitian")
	}
	for trial := 0; trial < 20; trial++ {
		v := linalg.New(n, 1)
		for i := 0; i < n; i++ {
			v.Set(i, 0, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		q := product(v, linalg.ConjTrans, product(res.Gamma, linalg.NoTrans, v, linalg.NoTrans), linalg.NoTrans)
		if real(q.At(0, 0)) < -1e-9 {
			t.Fatalf("Γ has negative Rayleigh quotient %g", real(q.At(0, 0)))
		}
	}
}

func TestSurfaceGFCausality(t *testing.T) {
	// Retarded GF: the imaginary part of the diagonal must be negative
	// (spectral function = −2·Im gs_ii ≥ 0).
	rng := rand.New(rand.NewSource(4))
	n := 5
	d00, tau := leadBlocks(rng, n, 0.3, 1e-3)
	res, err := surfaceGF(d00, tau)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if im := imag(res.Surface.At(i, i)); im > 1e-12 {
			t.Fatalf("Im gs[%d,%d] = %g > 0 violates causality", i, i, im)
		}
	}
}

func TestDecoupledLeadLimit(t *testing.T) {
	// With τ = 0 the lead decouples: gs = d00⁻¹ exactly, Σᴿ = 0.
	rng := rand.New(rand.NewSource(5))
	n := 3
	d00, _ := leadBlocks(rng, n, 0.4, 1e-3)
	tau := linalg.New(n, n)
	res, err := surfaceGF(d00, tau)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := linalg.Inverse(d00)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.MaxDiff(res.Surface, inv) > 1e-10 {
		t.Fatal("decoupled surface GF should equal the block inverse")
	}
	if res.SigmaR.FrobNorm() != 0 {
		t.Fatal("decoupled Σᴿ should vanish")
	}
	if res.Iters != 1 {
		t.Fatalf("decoupled lead should converge immediately, took %d", res.Iters)
	}
}

func TestNoConvergenceWithoutBroadening(t *testing.T) {
	// η = 0 inside a band: the decimation coupling never decays and the
	// iteration cap is hit. A 1x1 chain, hopping 0.5 (band |E| < 1), at
	// E = 0.3 — not at the band centre E = 0, where d00 = 0 is singular
	// and the first step fails before any iteration runs.
	d00 := linalg.New(1, 1)
	d00.Set(0, 0, 0.3) // E = 0.3, no broadening, onsite 0
	tau := linalg.New(1, 1)
	tau.Set(0, 0, -0.5)
	if _, err := surfaceGF(d00, tau); !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence at zero broadening", err)
	}
}

func TestAnalytic1DChain(t *testing.T) {
	// Semi-infinite 1-D chain, onsite 0, hopping t: the surface GF is
	// gs(E) = (E − sqrt(E² − 4t²)) / (2t²) with the branch Im gs < 0.
	// Outside the band (|E| > 2|t|) gs is real.
	tt := 0.5
	e := 1.5 // outside band edge 1.0? band is |E|<2t=1.0, so 1.5 is outside
	d00 := linalg.New(1, 1)
	d00.Set(0, 0, complex(e, 1e-9))
	tau := linalg.New(1, 1)
	tau.Set(0, 0, complex(-tt, 0))
	res, err := surfaceGF(d00, tau)
	if err != nil {
		t.Fatal(err)
	}
	disc := math.Sqrt(e*e - 4*tt*tt)
	want := (e - disc) / (2 * tt * tt)
	got := real(res.Surface.At(0, 0))
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("1-D chain surface GF = %g, want %g", got, want)
	}
	// Inside the band: |Im gs| = sqrt(4t²−E²)/(2t²).
	e = 0.3
	d00.Set(0, 0, complex(e, 1e-9))
	res, err = surfaceGF(d00, tau)
	if err != nil {
		t.Fatal(err)
	}
	wantIm := -math.Sqrt(4*tt*tt-e*e) / (2 * tt * tt)
	if math.Abs(imag(res.Surface.At(0, 0))-wantIm) > 1e-3 {
		t.Fatalf("in-band Im gs = %g, want %g", imag(res.Surface.At(0, 0)), wantIm)
	}
}

func TestShapeValidation(t *testing.T) {
	if _, err := surfaceGF(linalg.New(2, 2), linalg.New(3, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

// TestSurfaceGFFixedRule: the four-argument spelling accepts only (0, 0),
// the one stopping rule, and then decimates exactly as SurfaceGFInto.
func TestSurfaceGFFixedRule(t *testing.T) {
	d00, tau := leadBlocks(rand.New(rand.NewSource(5)), 4, 0.4, 1e-3)
	got, err := SurfaceGF(d00, tau, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := surfaceGF(d00, tau)
	if err != nil {
		t.Fatal(err)
	}
	if resultDigest(got) != resultDigest(want) {
		t.Error("SurfaceGF(0, 0) differs from SurfaceGFInto")
	}
	for _, rule := range [][2]float64{{1e-14, 0}, {0, 8}, {-1, -1}} {
		if _, err := SurfaceGF(d00, tau, rule[0], int(rule[1])); err == nil {
			t.Errorf("SurfaceGF(%g, %d) accepted", rule[0], int(rule[1]))
		}
	}
}

func TestCacheModes(t *testing.T) {
	calls := 0
	compute := func() (*Result, error) {
		calls++
		return &Result{}, nil
	}
	c := NewCache(CacheBC)
	for i := 0; i < 5; i++ {
		if _, err := c.GetLead(0, 1, 2, nil, compute); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("CacheBC recomputed %d times", calls)
	}
	hits, misses := c.Stats()
	if hits != 4 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}

	calls = 0
	nc := NewCache(NoCache)
	for i := 0; i < 5; i++ {
		if _, err := nc.GetLead(0, 1, 2, nil, compute); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 5 {
		t.Fatalf("NoCache should recompute every time, got %d", calls)
	}
}

func TestCachePropagatesError(t *testing.T) {
	boom := errors.New("boom")
	c := NewCache(CacheBC)
	if _, err := c.GetLead(0, 0, 0, nil, func() (*Result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatal("compute error not propagated")
	}
}

// product returns op(A)·op(B) in a new matrix.
func product(a *linalg.Matrix, opA linalg.Op, b *linalg.Matrix, opB linalg.Op) *linalg.Matrix {
	m, n := a.Rows, b.Cols
	if opA != linalg.NoTrans {
		m = a.Cols
	}
	if opB != linalg.NoTrans {
		n = b.Rows
	}
	c := linalg.New(m, n)
	linalg.GEMM(1, a, opA, b, opB, 0, c)
	return c
}
