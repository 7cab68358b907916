package rgf

import (
	"math/rand"
	"testing"

	"repro/internal/blocktri"
	"repro/internal/linalg"
)

// randomSparseCouplingProblem builds a well-conditioned RGF problem whose
// off-diagonal coupling blocks carry the given nonzero density — the
// structure of a DFT Hamiltonian, where each atom couples to a handful of
// neighbours. Diagonal blocks stay dense.
func randomSparseCouplingProblem(rng *rand.Rand, sizes []int, density float64) *Problem {
	nb := len(sizes)
	a := blocktri.New(sizes)
	for i := range a.Diag {
		d := a.Diag[i]
		for r := range d.Data {
			d.Data[r] = complex(-0.5*rng.NormFloat64(), -0.5*rng.NormFloat64())
		}
		linalg.Hermitize(d, d)
		linalg.Scale(d, -1, d)
		for r := 0; r < sizes[i]; r++ {
			d.Set(r, r, d.At(r, r)+complex(0.7, 0.05))
		}
	}
	for i := range a.Upper {
		up := linalg.New(sizes[i], sizes[i+1])
		for r := 0; r < up.Rows; r++ {
			for c := 0; c < up.Cols; c++ {
				if rng.Float64() < density {
					up.Set(r, c, complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64()))
				}
			}
		}
		a.Upper[i] = linalg.Scale(linalg.New(up.Rows, up.Cols), -1, up)
		a.Lower[i] = a.Upper[i].H()
	}
	sigL := make([]*linalg.Matrix, nb)
	sigG := make([]*linalg.Matrix, nb)
	for i := 0; i < nb; i++ {
		m := linalg.New(sizes[i], sizes[i])
		for r := range m.Data {
			m.Data[r] = complex(0.2*rng.NormFloat64(), 0.2*rng.NormFloat64())
		}
		linalg.Hermitize(m, m)
		sigL[i] = linalg.Scale(linalg.New(sizes[i], sizes[i]), 1i, m)
		m2 := linalg.New(sizes[i], sizes[i])
		for r := range m2.Data {
			m2.Data[r] = complex(0.2*rng.NormFloat64(), 0.2*rng.NormFloat64())
		}
		linalg.Hermitize(m2, m2)
		sigG[i] = linalg.Scale(linalg.New(sizes[i], sizes[i]), -1i, m2)
	}
	return &Problem{A: a, SigL: sigL, SigG: sigG}
}

// solutionBlocks enumerates every block family of a Solution for
// comparison loops.
func solutionBlocks(s *Solution) map[string][]*linalg.Matrix {
	return map[string][]*linalg.Matrix{
		"GR": s.GR, "GL": s.GL, "GG": s.GG,
		"GRUpper": s.GRUpper,
		"GLUpper": s.GLUpper, "GLLower": s.GLLower,
		"GGUpper": s.GGUpper, "GGLower": s.GGLower,
	}
}

func compareSolutions(t *testing.T, ctx string, got, want *Solution, tol float64) {
	t.Helper()
	wantBlocks := solutionBlocks(want)
	for name, gotFam := range solutionBlocks(got) {
		wantFam := wantBlocks[name]
		for i := range wantFam {
			if d := linalg.MaxDiff(gotFam[i], wantFam[i]); d > tol {
				t.Fatalf("%s: %s[%d] differs by %g (tol %g)", ctx, name, i, d, tol)
			}
		}
	}
}

// TestSparseRGFMatchesDense: on sparse-coupled problems — coupling blocks
// with exact zeros at density 0.1, the structure of a DFT Hamiltonian,
// on uniform and non-uniform blocks of dims ≥ 16 — the recursion matches
// the dense-inversion oracle, and SolveInto on one reused workspace and
// solution reproduces Solve bit for bit. There is one arithmetic: stored
// zeros are multiplied like any other entry.
func TestSparseRGFMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	ws := linalg.NewWorkspace()
	var into *Solution
	for _, sizes := range [][]int{{20, 24, 20}, {16, 16, 16, 16}, {20, 24, 16, 20}} {
		p := randomSparseCouplingProblem(rng, sizes, 0.1)
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("sizes %v: %v", sizes, err)
		}
		if into, err = SolveInto(p, ws, into); err != nil {
			t.Fatalf("sizes %v SolveInto: %v", sizes, err)
		}
		compareSolutions(t, "SolveInto vs Solve", into, sol, 0)

		grD, glD, ggD, err := DenseReference(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sizes {
			if d := linalg.MaxDiff(sol.GR[i], blockAt(grD, p.A, i, i)); d > 1e-8 {
				t.Fatalf("sizes %v: GR[%d] vs oracle differs by %g", sizes, i, d)
			}
			if d := linalg.MaxDiff(sol.GL[i], blockAt(glD, p.A, i, i)); d > 1e-8 {
				t.Fatalf("sizes %v: GL[%d] vs oracle differs by %g", sizes, i, d)
			}
			if d := linalg.MaxDiff(sol.GG[i], blockAt(ggD, p.A, i, i)); d > 1e-8 {
				t.Fatalf("sizes %v: GG[%d] vs oracle differs by %g", sizes, i, d)
			}
		}
	}
}

// TestSparseSolveIntoSteadyStateAllocs extends the zero-alloc steady-state
// contract to the sparse-coupled fixture (dims ≥ 16, density 0.1).
func TestSparseSolveIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := randomSparseCouplingProblem(rng, []int{20, 20, 20, 20}, 0.1)
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
	if allocs != 0 {
		t.Errorf("warm SolveInto allocates %.1f times per solve on the sparse-coupled fixture, want 0", allocs)
	}
}
