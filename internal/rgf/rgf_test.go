package rgf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blocktri"
	"repro/internal/linalg"
)

// randomProblem builds a well-conditioned random block-tridiagonal RGF
// problem: A = (E+iη)·I − H with Hermitian H and anti-Hermitian Σ≷
// injections on every block, the structure the NEGF solver produces.
func randomProblem(rng *rand.Rand, sizes []int) *Problem {
	nb := len(sizes)
	h := blocktri.New(sizes)
	fill := func(b *linalg.Matrix, scale float64) {
		for i := range b.Data {
			b.Data[i] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
		}
	}
	for i := range h.Diag {
		fill(h.Diag[i], 0.5)
		linalg.Hermitize(h.Diag[i], h.Diag[i])
	}
	for i := range h.Upper {
		fill(h.Upper[i], 0.3)
		h.Lower[i] = h.Upper[i].H()
	}
	// A = (E + iη)·I − H with enough η to be safely nonsingular.
	a := blocktri.New(sizes)
	for i := range a.Diag {
		a.Diag[i] = linalg.Scale(linalg.New(sizes[i], sizes[i]), -1, h.Diag[i])
		for r := 0; r < sizes[i]; r++ {
			a.Diag[i].Set(r, r, a.Diag[i].At(r, r)+complex(0.7, 0.05))
		}
	}
	for i := range a.Upper {
		a.Upper[i] = linalg.Scale(linalg.New(h.Upper[i].Rows, h.Upper[i].Cols), -1, h.Upper[i])
		a.Lower[i] = linalg.Scale(linalg.New(h.Lower[i].Rows, h.Lower[i].Cols), -1, h.Lower[i])
	}
	sigL := make([]*linalg.Matrix, nb)
	sigG := make([]*linalg.Matrix, nb)
	for i := 0; i < nb; i++ {
		// Anti-Hermitian injections: i·(M + Mᴴ) with random Hermitian M.
		m := linalg.New(sizes[i], sizes[i])
		fill(m, 0.2)
		linalg.Hermitize(m, m)
		sigL[i] = linalg.Scale(linalg.New(sizes[i], sizes[i]), 1i, m)
		m2 := linalg.New(sizes[i], sizes[i])
		fill(m2, 0.2)
		linalg.Hermitize(m2, m2)
		sigG[i] = linalg.Scale(linalg.New(sizes[i], sizes[i]), -1i, m2)
	}
	return &Problem{A: a, SigL: sigL, SigG: sigG}
}

// blockAt copies block (i, j) of a's dense scatter d.
func blockAt(d *linalg.Matrix, a *blocktri.Matrix, i, j int) *linalg.Matrix {
	r0, c0 := 0, 0
	for b := range i {
		r0 += a.Sizes[b]
	}
	for b := range j {
		c0 += a.Sizes[b]
	}
	out := linalg.New(a.Sizes[i], a.Sizes[j])
	for r := range out.Rows {
		copy(out.Row(r), d.Data[(r0+r)*d.Cols+c0:(r0+r)*d.Cols+c0+out.Cols])
	}
	return out
}

func TestRGFMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sizes := range [][]int{{3}, {2, 2}, {3, 4, 3}, {2, 5, 3, 4}, {4, 4, 4, 4, 4, 4}} {
		p := randomProblem(rng, sizes)
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		grD, glD, ggD, err := DenseReference(p)
		if err != nil {
			t.Fatal(err)
		}
		const tol = 1e-8
		for i := range sizes {
			if d := linalg.MaxDiff(sol.GR[i], blockAt(grD, p.A, i, i)); d > tol {
				t.Fatalf("sizes %v: GR[%d] differs from dense by %g", sizes, i, d)
			}
			if d := linalg.MaxDiff(sol.GL[i], blockAt(glD, p.A, i, i)); d > tol {
				t.Fatalf("sizes %v: GL[%d] differs from dense by %g", sizes, i, d)
			}
			if d := linalg.MaxDiff(sol.GG[i], blockAt(ggD, p.A, i, i)); d > tol {
				t.Fatalf("sizes %v: GG[%d] differs from dense by %g", sizes, i, d)
			}
		}
		for i := 0; i+1 < len(sizes); i++ {
			if d := linalg.MaxDiff(sol.GRUpper[i], blockAt(grD, p.A, i, i+1)); d > tol {
				t.Fatalf("sizes %v: GRUpper[%d] differs by %g", sizes, i, d)
			}
			if d := linalg.MaxDiff(sol.GLUpper[i], blockAt(glD, p.A, i, i+1)); d > tol {
				t.Fatalf("sizes %v: GLUpper[%d] differs by %g", sizes, i, d)
			}
			if d := linalg.MaxDiff(sol.GLLower[i], blockAt(glD, p.A, i+1, i)); d > tol {
				t.Fatalf("sizes %v: GLLower[%d] differs by %g", sizes, i, d)
			}
			if d := linalg.MaxDiff(sol.GGUpper[i], blockAt(ggD, p.A, i, i+1)); d > tol {
				t.Fatalf("sizes %v: GGUpper[%d] differs by %g", sizes, i, d)
			}
			if d := linalg.MaxDiff(sol.GGLower[i], blockAt(ggD, p.A, i+1, i)); d > tol {
				t.Fatalf("sizes %v: GGLower[%d] differs by %g", sizes, i, d)
			}
		}
	}
}

func TestLesserAntiHermitian(t *testing.T) {
	// With anti-Hermitian Σ<, G< = GR·Σ<·GA must be anti-Hermitian:
	// its diagonal blocks satisfy Xᴴ = −X.
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, []int{3, 3, 3})
	sol, err := solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, gl := range sol.GL {
		sum := linalg.Add(linalg.New(gl.Rows, gl.Cols), gl, gl.H())
		if sum.FrobNorm() > 1e-9 {
			t.Fatalf("GL[%d] not anti-Hermitian: %g", i, sum.FrobNorm())
		}
	}
}

func TestNilSigmaBlocksTreatedAsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := randomProblem(rng, []int{2, 3, 2})
	// Zero out the middle injection two ways: nil and explicit zero.
	pNil := &Problem{A: p.A, SigL: append([]*linalg.Matrix(nil), p.SigL...), SigG: append([]*linalg.Matrix(nil), p.SigG...)}
	pNil.SigL[1] = nil
	pZero := &Problem{A: p.A, SigL: append([]*linalg.Matrix(nil), p.SigL...), SigG: append([]*linalg.Matrix(nil), p.SigG...)}
	pZero.SigL[1] = linalg.New(3, 3)
	s1, err := solve(pNil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := solve(pZero)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.GL {
		if linalg.MaxDiff(s1.GL[i], s2.GL[i]) != 0 {
			t.Fatal("nil and zero sigma blocks differ")
		}
	}
}

// TestSolveIntoMatchesSolveBitwise checks the workspace path is a pure
// memory-management change: interleaved SolveInto calls on one reused
// workspace+solution reproduce fresh Solve results bit for bit, with no
// state leaking between problems of different shapes.
func TestSolveIntoMatchesSolveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	problems := []*Problem{
		randomProblem(rng, []int{3, 4, 3}),
		randomProblem(rng, []int{2, 5, 3, 4}),
		randomProblem(rng, []int{4, 4, 4, 4}),
		randomProblem(rng, []int{3, 4, 3}), // same shape as the first: exercises warm-pool reuse
	}
	ws := linalg.NewWorkspace()
	var sol *Solution
	for round := 0; round < 2; round++ {
		for pi, p := range problems {
			want, err := solve(p)
			if err != nil {
				t.Fatal(err)
			}
			sol, err = SolveInto(p, ws, sol)
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, got, ref []*linalg.Matrix) {
				for i := range ref {
					if d := linalg.MaxDiff(got[i], ref[i]); d != 0 {
						t.Fatalf("round %d problem %d: %s[%d] differs by %g", round, pi, name, i, d)
					}
				}
			}
			check("GR", sol.GR, want.GR)
			check("GL", sol.GL, want.GL)
			check("GG", sol.GG, want.GG)
			check("GRUpper", sol.GRUpper, want.GRUpper)
			check("GLUpper", sol.GLUpper, want.GLUpper)
			check("GLLower", sol.GLLower, want.GLLower)
			check("GGUpper", sol.GGUpper, want.GGUpper)
			check("GGLower", sol.GGLower, want.GGLower)
		}
	}
}

// TestNilSigmaAllBlocks is the regression for the backward-pass nil-Σ≷
// handling: every injection nil — the shape the bare-Hamiltonian RGF
// benchmark and the ballistic limit produce — must equal explicit zero
// blocks everywhere, including the contact slabs.
func TestNilSigmaAllBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	base := randomProblem(rng, []int{3, 4, 3})
	nb := base.A.NB
	pNil := &Problem{A: base.A, SigL: make([]*linalg.Matrix, nb), SigG: make([]*linalg.Matrix, nb)}
	pZero := &Problem{A: base.A, SigL: make([]*linalg.Matrix, nb), SigG: make([]*linalg.Matrix, nb)}
	for i := 0; i < nb; i++ {
		pZero.SigL[i] = linalg.New(base.A.Sizes[i], base.A.Sizes[i])
		pZero.SigG[i] = linalg.New(base.A.Sizes[i], base.A.Sizes[i])
	}
	sNil, err := solve(pNil)
	if err != nil {
		t.Fatal(err)
	}
	sZero, err := solve(pZero)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nb; i++ {
		if linalg.MaxDiff(sNil.GL[i], sZero.GL[i]) != 0 || linalg.MaxDiff(sNil.GG[i], sZero.GG[i]) != 0 {
			t.Fatalf("all-nil and all-zero Σ≷ differ at block %d", i)
		}
		if linalg.MaxDiff(sNil.GR[i], sZero.GR[i]) != 0 {
			t.Fatalf("GR differs at block %d", i)
		}
	}
	// G≷ must be exactly zero with no injections anywhere.
	for i := 0; i < nb; i++ {
		if sNil.GL[i].MaxAbs() != 0 || sNil.GG[i].MaxAbs() != 0 {
			t.Fatalf("ballistic-limit G≷[%d] nonzero with all-nil Σ≷", i)
		}
	}
}

// TestSolveIntoSteadyStateAllocs pins the tentpole: after the first solve
// warms the pool, SolveInto performs (essentially) no heap allocation.
func TestSolveIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomProblem(rng, []int{8, 8, 8, 8})
	ws := linalg.NewWorkspace()
	var sol *Solution
	var err error
	if sol, err = SolveInto(p, ws, sol); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if sol, err = SolveInto(p, ws, sol); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm SolveInto allocates %.1f times per solve, want ≤ 2", allocs)
	}
}

func TestSigmaCountValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomProblem(rng, []int{2, 2})
	p.SigL = p.SigL[:1]
	if _, err := solve(p); err == nil {
		t.Fatal("expected error for mismatched sigma count")
	}
}

func TestSingleBlockReducesToDirectInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := randomProblem(rng, []int{5})
	sol, err := solve(p)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := linalg.Inverse(p.A.Diag[0])
	if err != nil {
		t.Fatal(err)
	}
	if linalg.MaxDiff(sol.GR[0], inv) > 1e-9 {
		t.Fatal("single-block GR should equal the direct inverse")
	}
}

// BenchmarkRGFSolve measures the production hot path: the workspace-pooled
// SolveInto on a warm per-worker workspace, the way negf.PointSolver and
// the dist rank workers call it. 0 allocs/op is the bound CI guards.
func BenchmarkRGFSolve(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, []int{32, 32, 32, 32, 32, 32, 32, 32})
	ws := linalg.NewWorkspace()
	var sol *Solution
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol, err = SolveInto(p, ws, sol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRGFSolveColdWorkspace is the allocating baseline (fresh
// workspace and solution every solve) — the before side of the
// BENCH_5.json comparison, kept so the pool's win stays measurable.
func BenchmarkRGFSolveColdWorkspace(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, []int{32, 32, 32, 32, 32, 32, 32, 32})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// solve runs the RGF recursion on a fresh workspace and solution.
func solve(p *Problem) (*Solution, error) {
	return SolveInto(p, linalg.NewWorkspace(), nil)
}

// TestNegHIntoMatchesHIntoScale pins the one-pass −aᴴ of the forward step
// to the HInto-then-Scale(−1) pair it replaced, bit for bit with NaN
// payloads aside, over the operands that separate a product by −1 from a negation:
// signed zeros facing either sign of the other part, and Inf, whose
// product with the zero imaginary part of −1 is NaN.
func TestNegHIntoMatchesHIntoScale(t *testing.T) {
	negZero := math.Copysign(0, -1)
	parts := []float64{0, negZero, 1, -1, math.Inf(1), math.Inf(-1)}
	a := linalg.New(len(parts), len(parts)+1)
	for i := range a.Data {
		a.Data[i] = complex(parts[i%len(parts)], parts[(i/len(parts))%len(parts)])
	}
	want := linalg.HInto(linalg.New(a.Cols, a.Rows), a)
	linalg.Scale(want, -1, want)
	got := negHInto(linalg.New(a.Cols, a.Rows), a)
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	for i, w := range want.Data {
		if g := got.Data[i]; !same(real(g), real(w)) || !same(imag(g), imag(w)) {
			t.Fatalf("elem %d: negHInto %v, HInto+Scale %v", i, g, w)
		}
	}
}
