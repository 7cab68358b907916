// Package bc computes the open-boundary self-energies that connect the
// finite simulation domain to semi-infinite contacts — the "Boundary
// Conditions" kernel of the paper (first row of Table 3, cached in the
// "Cache BC" modes of Fig. 9).
//
// The paper evaluates a contour integral on the GPUs; this package uses the
// Sancho–Rubio decimation iteration, the standard CPU algorithm computing
// the same object: the retarded surface Green's function gs of a periodic
// semi-infinite lead, from which the boundary self-energy Σᴿ_B = τ·gs·τᴴ
// follows. Both electrons (E·S − H blocks) and phonons (ω²·I − Φ blocks)
// use the same routine.
package bc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// DefaultMaxIter bounds the decimation iterations. Each iteration doubles
// the effective lead depth, so 60 iterations cover ~2^60 periods.
const DefaultMaxIter = 60

// DefaultTol is the convergence threshold on the decimation coupling norm.
const DefaultTol = 1e-10

// ErrNoConvergence is returned when decimation fails to converge, which in
// practice signals a vanishing imaginary part (η too small).
var ErrNoConvergence = errors.New("bc: Sancho-Rubio decimation did not converge")

// Result bundles the contact objects the GF phase needs.
type Result struct {
	Surface *linalg.Matrix // gs: retarded surface Green's function of the lead
	SigmaR  *linalg.Matrix // Σᴿ_B = τ·gs·τᴴ: retarded boundary self-energy
	Gamma   *linalg.Matrix // Γ = i(Σᴿ − Σᴿᴴ): broadening (positive semidefinite)
	Iters   int            // decimation iterations used
}

// SurfaceGF is SurfaceGFInto on a fresh workspace — the convenience
// wrapper for one-off decimations (tests, oracles, benchmark rungs). Hot
// callers lend their per-worker workspace instead.
func SurfaceGF(d00, tau *linalg.Matrix, tol float64, maxIter int) (*Result, error) {
	return SurfaceGFInto(linalg.NewWorkspace(), d00, tau, tol, maxIter)
}

// SurfaceGFInto runs Sancho–Rubio decimation for a semi-infinite lead whose
// onsite block is d00 (already including the energy: E·S − H₀₀ or ω²·I − Φ₀₀,
// with +iη broadening) and whose inter-cell coupling is tau (the
// lead-period coupling; for the left contact this is the Lower block, for
// the right the Upper block of the device edge). Neither is modified.
//
// Iteration (Sancho, Sancho & Rubio 1985): with ε := d00, εs := d00,
// α := tau, β := tauᴴ, repeat
//
//	g    = ε⁻¹
//	εs  −= α·g·β
//	ε   −= α·g·β + β·g·α
//	α    = α·g·α
//	β    = β·g·β
//
// until ‖α‖ is negligible; then gs = εs⁻¹. All four triple products
// associate left, so α·g and β·g are formed once per step and shared:
// six GEMMs per step, bit-identical to four independent Mul3.
//
// Every temporary and the LU storage come from ws (not Reset here: the
// caller may hold other checkouts) and are handed back before a
// successful return; only the three matrices of the Result, which the
// boundary cache retains, are heap-allocated.
func SurfaceGFInto(ws *linalg.Workspace, d00, tau *linalg.Matrix, tol float64, maxIter int) (*Result, error) {
	if !d00.IsSquare() || !tau.IsSquare() || d00.Rows != tau.Rows {
		return nil, fmt.Errorf("bc: incompatible blocks %dx%d and %dx%d", d00.Rows, d00.Cols, tau.Rows, tau.Cols)
	}
	tol, maxIter = stoppingRule(tol, maxIter)
	n := d00.Rows
	tmp := func() *linalg.Matrix { return ws.Get(n, n) }
	eps, epsS := tmp(), tmp()
	eps.CopyFrom(d00)
	epsS.CopyFrom(d00)
	alpha := tmp()
	alpha.CopyFrom(tau)
	beta := linalg.HInto(tmp(), tau)
	g, ag, bg, prod := tmp(), tmp(), tmp(), tmp()
	nextA, nextB := tmp(), tmp()
	lu := ws.LUFor(n)

	for it := 1; it <= maxIter; it++ {
		if err := lu.FactorizeInto(eps); err != nil {
			return nil, fmt.Errorf("bc: singular bulk block at iteration %d: %w", it, err)
		}
		lu.InverseInto(g)
		ws.MulInto(ag, alpha, g)
		ws.MulInto(bg, beta, g)
		ws.MulInto(prod, ag, beta) // α·g·β
		linalg.AXPY(epsS, -1, prod)
		linalg.AXPY(eps, -1, prod)
		ws.MulInto(prod, bg, alpha) // β·g·α
		linalg.AXPY(eps, -1, prod)
		ws.MulInto(nextA, ag, alpha)
		ws.MulInto(nextB, bg, beta)
		alpha, nextA = nextA, alpha
		beta, nextB = nextB, beta
		if alpha.FrobNorm() < tol && beta.FrobNorm() < tol {
			if err := lu.FactorizeInto(epsS); err != nil {
				return nil, fmt.Errorf("bc: singular surface block: %w", err)
			}
			gs := linalg.New(n, n)
			lu.InverseInto(gs)
			sig := linalg.New(n, n)
			ws.MulInto(prod, tau, gs)
			ws.MulInto(sig, prod, linalg.HInto(ag, tau))
			// Γ = i(Σ − Σᴴ).
			gamma := linalg.Sub(linalg.New(n, n), sig, linalg.HInto(prod, sig))
			linalg.Scale(gamma, 1i, gamma)
			for _, m := range [...]*linalg.Matrix{eps, epsS, alpha, beta, g, ag, bg, prod, nextA, nextB} {
				ws.Put(m)
			}
			return &Result{Surface: gs, SigmaR: sig, Gamma: gamma, Iters: it}, nil
		}
	}
	return nil, ErrNoConvergence
}

// stoppingRule resolves the decimation's stopping parameters: a
// non-positive value selects the default.
func stoppingRule(tol float64, maxIter int) (float64, int) {
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	return tol, maxIter
}

// Cache memoizes boundary results per (contact, momentum, energy/frequency)
// grid point of one run — the compute/memory trade-off of §7.1.2. Mode
// selects how much is retained between self-consistent iterations. The
// cache is safe for concurrent use: the parallel GF phase and the
// task-graph scheduler (internal/sdfg) hit it from many point solves at
// once. The compute callback runs outside the lock, so distinct points
// never serialize; concurrent misses of the same key both compute and the
// last write wins (the result is deterministic, so both are identical).
type Cache struct {
	// Store, when non-nil, is the content-keyed store GetLead asks on a
	// CacheBC miss before it decimates — how the solves of a process share
	// boundaries. Set it before the first lookup; nil means no sharing.
	Store *Store

	mode        Mode
	mu          sync.Mutex
	entries     map[key]*Result
	hits        int
	misses      int
	decimations atomic.Int64
}

// Mode enumerates the §7.1.2 execution modes of the GF phase.
type Mode int

const (
	// NoCache recomputes boundary conditions on every access.
	NoCache Mode = iota
	// CacheBC retains boundary-condition results across iterations.
	CacheBC
)

func (m Mode) String() string {
	if m == NoCache {
		return "No Cache"
	}
	return "Cache BC"
}

type key struct {
	contact int // 0 = left/source, 1 = right/drain
	ik, ie  int
}

// NewCache returns a cache operating in the given mode.
func NewCache(mode Mode) *Cache {
	return &Cache{mode: mode, entries: make(map[key]*Result)}
}

// Get returns the cached boundary result or computes it with compute().
func (c *Cache) Get(contact, ik, ie int, compute func() (*Result, error)) (*Result, error) {
	return c.GetLead(contact, ik, ie, nil, compute)
}

// GetLead is Get for a lookup that can name its decimation by content:
// on a CacheBC miss with a Store attached, lead() keys the store, and
// compute runs only if the store misses too. NoCache bypasses the store —
// that mode exists to recompute — and so does a nil lead.
func (c *Cache) GetLead(contact, ik, ie int, lead func() LeadKey, compute func() (*Result, error)) (*Result, error) {
	k := key{contact, ik, ie}
	c.mu.Lock()
	if c.mode == CacheBC {
		if r, ok := c.entries[k]; ok {
			c.hits++
			c.mu.Unlock()
			return r, nil
		}
	}
	c.misses++
	c.mu.Unlock()
	decimate := func() (*Result, error) {
		c.decimations.Add(1)
		return compute()
	}
	var r *Result
	var err error
	if c.mode == CacheBC && c.Store != nil && lead != nil {
		r, err = c.Store.Get(lead(), decimate)
	} else {
		r, err = decimate()
	}
	if err != nil {
		return nil, err
	}
	if c.mode == CacheBC {
		c.mu.Lock()
		c.entries[k] = r
		c.mu.Unlock()
	}
	return r, nil
}

// Stats reports cache hits and misses (for the Fig. 9 cache-mode study).
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Decimations reports how many times a compute callback actually ran: the
// misses the store could not serve (every miss without one, and every
// lookup under NoCache).
func (c *Cache) Decimations() int { return int(c.decimations.Load()) }
