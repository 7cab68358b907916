// Package rgf implements the Recursive Green's Function algorithm
// (Svizhenko et al. 2002) — the core computational kernel of the GF phase.
//
// Given the block-tridiagonal matrix A = E·S − H − Σᴿ (electrons) or
// A = ω²·I − Φ − Πᴿ (phonons) and block-diagonal lesser/greater
// self-energy injections Σ≷, RGF computes the diagonal and first
// off-diagonal blocks of
//
//	Gᴿ = A⁻¹,   G≷ = Gᴿ·Σ≷·Gᴬ
//
// in O(bnum·(N/bnum)³) instead of the O(N³) of a dense inverse. The
// diagonal per-atom sub-blocks feed the SSE kernel; the off-diagonal
// blocks provide the neighbour couplings D_ab needed by Eq. (2) and the
// interface currents of Fig. 11.
package rgf

import (
	"fmt"
	"math/cmplx"

	"repro/internal/blocktri"
	"repro/internal/linalg"
)

// Problem describes one (momentum, energy) RGF solve.
type Problem struct {
	// A holds the blocks of E·S − H − Σᴿ (including boundary and
	// scattering retarded self-energies and the +iη broadening).
	A *blocktri.Matrix
	// SigL and SigG are the block-diagonal lesser/greater self-energy
	// injections per slab (boundary terms on the contact slabs plus
	// scattering terms everywhere). Entries may be nil for zero blocks.
	SigL []*linalg.Matrix
	SigG []*linalg.Matrix
}

// Solution holds the computed Green's function blocks. A Solution returned
// by SolveInto is backed by the workspace that produced it: its blocks are
// valid until that workspace's next Reset (i.e. the next SolveInto on it),
// so callers harvest what they need before solving the next point.
type Solution struct {
	// Diagonal blocks, one per slab.
	GR, GL, GG []*linalg.Matrix
	// First off-diagonal blocks: XUpper[i] = X_{i,i+1}, XLower[i] = X_{i+1,i}.
	// No caller reads Gᴿ_{i+1,i}, so only GRUpper is kept. G≷Lower is set to
	// −(G≷Upper)ᴴ, which equals G≷_{i+1,i} only for anti-Hermitian Σ≷ — an
	// assumption on the input, checked against the dense oracle only for
	// such input. Every other block is exact for general Σ≷.
	GRUpper          []*linalg.Matrix
	GLUpper, GLLower []*linalg.Matrix
	GGUpper, GGLower []*linalg.Matrix

	// scratch keeps the right-connected g-function slices alive across
	// calls so a reused Solution costs no per-solve slice allocations.
	gR, gL, gG []*linalg.Matrix
}

// resize (re)shapes the block slices for nb slabs, reusing prior storage.
func (s *Solution) resize(nb int) {
	grow := func(v []*linalg.Matrix, n int) []*linalg.Matrix {
		if cap(v) >= n {
			return v[:n]
		}
		return make([]*linalg.Matrix, n)
	}
	s.GR, s.GL, s.GG = grow(s.GR, nb), grow(s.GL, nb), grow(s.GG, nb)
	s.GRUpper = grow(s.GRUpper, nb-1)
	s.GLUpper, s.GLLower = grow(s.GLUpper, nb-1), grow(s.GLLower, nb-1)
	s.GGUpper, s.GGLower = grow(s.GGUpper, nb-1), grow(s.GGLower, nb-1)
	s.gR, s.gL, s.gG = grow(s.gR, nb), grow(s.gL, nb), grow(s.gG, nb)
}

// SolveInto runs the forward/backward RGF recursion with every temporary —
// effective blocks, LU storage, Hermitian conjugates, Σ≷ accumulators, and
// the Solution blocks themselves — checked out of ws, so a warm workspace
// solves without heap allocation. It Resets ws on entry: matrices obtained
// from ws earlier, including the blocks of a Solution a previous SolveInto
// on the same workspace returned, are recycled. sol, when non-nil, has its
// slices reused; pass the previous call's Solution for an allocation-free
// steady state. Results do not depend on the workspace or its history.
func SolveInto(p *Problem, ws *linalg.Workspace, sol *Solution) (*Solution, error) {
	a := p.A
	nb := a.NB
	if len(p.SigL) != nb || len(p.SigG) != nb {
		return nil, fmt.Errorf("rgf: self-energy block count %d/%d != %d", len(p.SigL), len(p.SigG), nb)
	}
	ws.Reset()
	if sol == nil {
		sol = &Solution{}
	}
	sol.resize(nb)

	// Backward pass: right-connected g-functions.
	gR, gL, gG := sol.gR, sol.gL, sol.gG
	for i := nb - 1; i >= 0; i-- {
		n := a.Sizes[i]
		eff := ws.Get(n, n)
		eff.CopyFrom(a.Diag[i])
		if i+1 < nb {
			// Embed the right part: A_ii − A_{i,i+1}·gR_{i+1}·A_{i+1,i}.
			w := ws.Get(n, n)
			ws.Mul3Into(w, a.Upper[i], gR[i+1], a.Lower[i])
			linalg.Sub(eff, eff, w)
			ws.Put(w)
		}
		f := ws.LUFor(n)
		if err := f.FactorizeInto(eff); err != nil {
			return nil, fmt.Errorf("rgf: singular effective block %d: %w", i, err)
		}
		gR[i] = ws.Get(n, n)
		f.InverseInto(gR[i])
		ws.Put(eff)
		gA := linalg.HInto(ws.Get(n, n), gR[i])

		// Σ≷ accumulated in place: start from the caller's block (or zero
		// for a nil block) and add the right-part injection — no zero
		// matrix materialized per nil block, no second fresh destination.
		sL := ws.Get(n, n)
		if p.SigL[i] == nil {
			sL.Zero()
		} else {
			sL.CopyFrom(p.SigL[i])
		}
		sG := ws.Get(n, n)
		if p.SigG[i] == nil {
			sG.Zero()
		} else {
			sG.CopyFrom(p.SigG[i])
		}
		if i+1 < nb {
			// Injection from the already-eliminated right part:
			// σ≷ += A_{i,i+1}·g≷_{i+1}·A_{i,i+1}ᴴ, associated (up·g≷)·upᴴ.
			up := a.Upper[i]
			m := a.Sizes[i+1]
			t := ws.Get(n, m)
			prod := ws.Get(n, n)
			upH := linalg.HInto(ws.Get(m, n), up)
			ws.MulInto(t, up, gL[i+1])
			ws.MulInto(prod, t, upH)
			linalg.Add(sL, sL, prod)
			ws.MulInto(t, up, gG[i+1])
			ws.MulInto(prod, t, upH)
			linalg.Add(sG, sG, prod)
			ws.Put(upH)
			ws.Put(t)
			ws.Put(prod)
		}
		// g≷ = gR·σ≷·gA, associated (gR·σ≷)·gA.
		t := ws.Get(n, n)
		gL[i] = ws.Get(n, n)
		ws.MulInto(t, gR[i], sL)
		ws.MulInto(gL[i], t, gA)
		gG[i] = ws.Get(n, n)
		ws.MulInto(t, gR[i], sG)
		ws.MulInto(gG[i], t, gA)
		ws.Put(t)
		ws.Put(sL)
		ws.Put(sG)
		ws.Put(gA)
	}

	// Forward pass: accumulate the left-connected full G blocks. Each
	// interface runs 14 n³ products around two shared operands,
	// X = gR_{i+1}·A_{i+1,i} and U = GR_ii·A_{i,i+1} — the only two that
	// touch a coupling block:
	//
	//	GR_{i,i+1}   = −U·gR_{i+1}
	//	GR_{i+1,i+1} = gR_{i+1} − X·GR_{i,i+1}
	//	G≷_{i,i+1}   = −U·g≷_{i+1} − G≷_ii·Xᴴ
	//	G≷_{i+1,i+1} = g≷_{i+1} − X·G≷_{i,i+1} + (g≷_{i+1}·Uᴴ)·Xᴴ
	//
	// with Xᴴ = A_{i+1,i}ᴴ·gA_{i+1} and Uᴴ = A_{i,i+1}ᴴ·GA_ii. Every line
	// is exact for general Σ≷; only G≷_{i+1,i} = −(G≷_{i,i+1})ᴴ assumes
	// anti-Hermitian injections. Signs and sums ride the GEMM's alpha and
	// beta. Xᴴ and Uᴴ are taken once per interface and enter their six
	// products as stored — the conjugates a ConjTrans operand would be
	// packed into on every call — so the step materializes five
	// temporaries (X, U, Xᴴ, Uᴴ, g≷·Uᴴ) and writes everything else
	// straight into the Solution blocks.
	s := sol
	s.GR[0] = gR[0]
	s.GL[0] = gL[0]
	s.GG[0] = gG[0]
	const nt = linalg.NoTrans
	for i := 0; i+1 < nb; i++ {
		n, m := a.Sizes[i], a.Sizes[i+1]
		gRn, GRi := gR[i+1], s.GR[i]

		x := ws.Get(m, n)
		u := ws.Get(n, m)
		ws.MulInto(x, gRn, a.Lower[i])
		ws.MulInto(u, GRi, a.Upper[i])
		xH := linalg.HInto(ws.Get(n, m), x)
		uH := linalg.HInto(ws.Get(m, n), u)

		s.GRUpper[i] = ws.Get(n, m)
		ws.GEMM(-1, u, nt, gRn, nt, 0, s.GRUpper[i])
		s.GR[i+1] = ws.Get(m, m)
		s.GR[i+1].CopyFrom(gRn)
		ws.GEMM(-1, x, nt, s.GRUpper[i], nt, 1, s.GR[i+1])

		z := ws.Get(m, n)
		lesserGreater := func(gn, Gi *linalg.Matrix) (upper, lower, diag *linalg.Matrix) {
			upper = ws.Get(n, m)
			ws.GEMM(-1, u, nt, gn, nt, 0, upper)
			ws.GEMM(-1, Gi, nt, xH, nt, 1, upper)
			lower = negHInto(ws.Get(m, n), upper)
			diag = ws.Get(m, m)
			diag.CopyFrom(gn)
			ws.GEMM(-1, x, nt, upper, nt, 1, diag)
			ws.GEMM(1, gn, nt, uH, nt, 0, z)
			ws.GEMM(1, z, nt, xH, nt, 1, diag)
			return upper, lower, diag
		}
		s.GLUpper[i], s.GLLower[i], s.GL[i+1] = lesserGreater(gL[i+1], s.GL[i])
		s.GGUpper[i], s.GGLower[i], s.GG[i+1] = lesserGreater(gG[i+1], s.GG[i])

		ws.Put(x)
		ws.Put(u)
		ws.Put(xH)
		ws.Put(uH)
		ws.Put(z)
	}
	return s, nil
}

// negHInto stores −aᴴ into dst, which must not alias a, in one pass and
// returns dst. Each element is the complex product −1·conj(a_ji) that
// HInto followed by linalg.Scale(dst, −1, dst) forms, signed zeros
// included: the real part of −1·(+0 − 1i) is +0, not −0.
func negHInto(dst, a *linalg.Matrix) *linalg.Matrix {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("rgf: negHInto shape mismatch %dx%d <- (%dx%d)ᴴ", dst.Rows, dst.Cols, a.Rows, a.Cols))
	}
	neg := complex(-1, 0)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			dst.Data[j*dst.Cols+i] = neg * cmplx.Conj(v)
		}
	}
	return dst
}

// DenseReference solves the same problem by dense inversion:
// Gᴿ = A⁻¹, G≷ = Gᴿ·Σ≷·Gᴬ — the validation oracle for RGF.
func DenseReference(p *Problem) (gr, gl, gg *linalg.Matrix, err error) {
	aD := p.A.Dense()
	gr, err = linalg.Inverse(aD)
	if err != nil {
		return nil, nil, nil, err
	}
	n := aD.Rows
	sigL := linalg.New(n, n)
	sigG := linalg.New(n, n)
	off := 0
	for i := 0; i < p.A.NB; i++ {
		sz := p.A.Sizes[i]
		if p.SigL[i] != nil {
			place(sigL, p.SigL[i], off)
		}
		if p.SigG[i] != nil {
			place(sigG, p.SigG[i], off)
		}
		off += sz
	}
	ga := gr.H()
	gl = linalg.Mul3(gr, sigL, ga)
	gg = linalg.Mul3(gr, sigG, ga)
	return gr, gl, gg, nil
}

func place(dst, blk *linalg.Matrix, off int) {
	for i := 0; i < blk.Rows; i++ {
		copy(dst.Data[(off+i)*dst.Cols+off:(off+i)*dst.Cols+off+blk.Cols], blk.Row(i))
	}
}
