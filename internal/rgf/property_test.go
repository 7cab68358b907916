package rgf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// TestRGFMatchesDenseProperty fuzzes random block structures (count and
// sizes) and checks every returned block against the dense oracle.
func TestRGFMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nb := 1 + rng.Intn(5)
		sizes := make([]int, nb)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(4)
		}
		p := randomProblem(rng, sizes)
		sol, err := Solve(p)
		if err != nil {
			return false
		}
		grD, glD, ggD, err := DenseReference(p)
		if err != nil {
			return false
		}
		const tol = 1e-7
		for i := range sizes {
			if linalg.MaxDiff(sol.GR[i], blockAt(grD, p.A, i, i)) > tol {
				return false
			}
			if linalg.MaxDiff(sol.GL[i], blockAt(glD, p.A, i, i)) > tol {
				return false
			}
			if linalg.MaxDiff(sol.GG[i], blockAt(ggD, p.A, i, i)) > tol {
				return false
			}
		}
		for i := 0; i+1 < nb; i++ {
			if linalg.MaxDiff(sol.GLUpper[i], blockAt(glD, p.A, i, i+1)) > tol {
				return false
			}
			if linalg.MaxDiff(sol.GGLower[i], blockAt(ggD, p.A, i+1, i)) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestGenericSigmaMatchesDense drops the anti-Hermitian structure every
// other rgf test builds into Σ≷: SCBA self-energies are anti-Hermitian
// only to ~5e-3, so a recursion step that silently uses (g≷)ᴴ = −g≷
// passes those tests and fails conservation downstream. With a Hermitian
// admixture in every injection, all blocks the recursion computes without
// that assumption must still match the dense oracle — on non-uniform
// blocks, dense- and sparse-coupled. G≷Lower is excluded: −(G≷Upper)ᴴ is
// the documented anti-Hermitian-input assumption.
func TestGenericSigmaMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	admix := func(sig []*linalg.Matrix) {
		for _, s := range sig {
			h := linalg.New(s.Rows, s.Cols)
			for i := range h.Data {
				h.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			linalg.Hermitize(h, h)
			linalg.AXPY(s, 1e-2, h)
		}
	}
	for _, c := range []struct {
		name string
		p    *Problem
	}{
		{"dense", randomProblem(rng, []int{3, 5, 2, 4})},
		{"dense-large", randomSparseCouplingProblem(rng, []int{20, 24, 16, 20}, 0.1)},
		{"sparse", randomSparseCouplingProblem(rng, []int{20, 24, 16, 20}, 0.1)},
	} {
		p := c.p
		admix(p.SigL)
		admix(p.SigG)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		grD, glD, ggD, err := DenseReference(p)
		if err != nil {
			t.Fatal(err)
		}
		const tol = 1e-8
		check := func(fam string, i int, got *linalg.Matrix, dense *linalg.Matrix, bi, bj int) {
			if d := linalg.MaxDiff(got, blockAt(dense, p.A, bi, bj)); d > tol {
				t.Errorf("%s: %s[%d] differs from dense by %g", c.name, fam, i, d)
			}
		}
		for i := 0; i < p.A.NB; i++ {
			check("GR", i, sol.GR[i], grD, i, i)
			check("GL", i, sol.GL[i], glD, i, i)
			check("GG", i, sol.GG[i], ggD, i, i)
		}
		for i := 0; i+1 < p.A.NB; i++ {
			check("GRUpper", i, sol.GRUpper[i], grD, i, i+1)
			check("GRLower", i, sol.GRLower[i], grD, i+1, i)
			check("GLUpper", i, sol.GLUpper[i], glD, i, i+1)
			check("GGUpper", i, sol.GGUpper[i], ggD, i, i+1)
		}
	}
}

// TestRetardedAdvancedSymmetry: Gᴬ = (Gᴿ)ᴴ must hold blockwise, i.e. the
// dense inverse of Aᴴ equals the conjugate transpose of A⁻¹. RGF only
// returns Gᴿ; verify its Hermitian partner solves the adjoint problem.
func TestRetardedAdvancedSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomProblem(rng, []int{3, 4, 3})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	aD := p.A.Dense()
	gaD := linalg.MustInverse(aD.H())
	for i := range sol.GR {
		got := sol.GR[i].H()
		want := blockAt(gaD, p.A, i, i)
		if linalg.MaxDiff(got, want) > 1e-8 {
			t.Fatalf("block %d: (GR)ᴴ does not solve the adjoint problem", i)
		}
	}
}

// TestGreaterLesserDifference: with our Σᴿ convention the identity
// G> − G< = Gᴿ·(Σ> − Σ<)·Gᴬ holds exactly; verify blockwise.
func TestGreaterLesserDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := randomProblem(rng, []int{2, 3, 2})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	grD, glD, ggD, err := DenseReference(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = grD
	n := glD.Rows
	diffDense := linalg.Sub(linalg.New(n, n), ggD, glD)
	for i := range sol.GL {
		diff := linalg.Sub(linalg.New(sol.GL[i].Rows, sol.GL[i].Cols), sol.GG[i], sol.GL[i])
		want := blockAt(diffDense, p.A, i, i)
		if linalg.MaxDiff(diff, want) > 1e-8 {
			t.Fatalf("block %d: G>−G< mismatch", i)
		}
	}
}

// TestFlopCountExact pins the work of a solve, product by product:
// nb uniform n×n blocks cost 8n³·(25(nb−1)+4) GEMM flops — per interface
// 10 products in the backward pass (2 embedding A·gᴿ·A, 4 injecting
// A·g≷·Aᴴ, 4 in g≷ = gᴿ·σ≷·gᴬ) and 15 in the forward pass, plus the 4 g≷
// products of the last slab — and nb factorizations (8·⅔n³) and inverses
// (8n³). A 16th forward product, a recomputed shared operand, or a
// product that skips the counter (the last row: dims ≥ 16 with coupling
// density 0.1, where exact zeros must cost what any entry costs) fails
// this test.
func TestFlopCountExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		nb, n   int
		density float64 // of the coupling blocks; 0 = fully dense fixture
	}{{1, 6, 0}, {4, 6, 0}, {8, 6, 0}, {4, 9, 0}, {4, 16, 0.1}} {
		sizes := make([]int, c.nb)
		for i := range sizes {
			sizes[i] = c.n
		}
		var p *Problem
		if c.density > 0 {
			p = randomSparseCouplingProblem(rng, sizes, c.density)
		} else {
			p = randomProblem(rng, sizes)
		}
		linalg.EnableFlopCounting(true)
		linalg.ResetFlops()
		_, err := Solve(p)
		got := linalg.Flops()
		linalg.EnableFlopCounting(false)
		if err != nil {
			t.Fatal(err)
		}
		n3 := int64(c.n * c.n * c.n)
		nb := int64(c.nb)
		lu := nb * (8*n3*2/3 + 8*n3)
		if want := 8*n3*(25*(nb-1)+4) + lu; got != want {
			t.Errorf("nb=%d n=%d: %d flops, want %d (%d GEMM products, want %d)",
				c.nb, c.n, got, want, (got-lu)/(8*n3), 25*(nb-1)+4)
		}
	}
}

// TestSolveDoesNotMutateInputs: A and Σ≷ must be untouched.
func TestSolveDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := randomProblem(rng, []int{3, 3})
	aBefore := p.A.Dense()
	sBefore := p.SigL[0].Clone()
	if _, err := Solve(p); err != nil {
		t.Fatal(err)
	}
	if linalg.MaxDiff(p.A.Dense(), aBefore) != 0 {
		t.Fatal("Solve mutated A")
	}
	if linalg.MaxDiff(p.SigL[0], sBefore) != 0 {
		t.Fatal("Solve mutated Σ<")
	}
}
