// Package negf holds the steps of the self-consistent DFT+NEGF
// electro-thermal simulation: the GF phase (open-boundary conditions +
// RGF solves for all electron (kz, E) and phonon (qz, ω) points), the
// observables folded from it, the mixing of the scattering self-energies
// the SSE phase computes, and the convergence rule — the outer loop of
// Fig. 4 in the paper, which internal/dist runs as one dataflow graph.
package negf

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sse"
	"repro/internal/tensor"
)

// Loop is the one table of the self-consistent loop's knobs: the
// distributed window graph reads it through dist.Options, the
// per-iteration kit (New, GFPhase, SSEPhase) directly, and WithDefaults
// resolves it for both.
type Loop struct {
	// CacheMode selects boundary-condition caching (§7.1.2); the zero
	// value is bc.CacheBC. A distributed rank's cache covers only its
	// owned points.
	CacheMode bc.Mode
	// Store, when non-nil, shares Sancho–Rubio results with every other
	// solve handed the same store: under bc.CacheBC a boundary this run
	// has not cached is taken from the store when an earlier solve
	// decimated the same lead at the same energy — bit for bit the result
	// this run would compute. Nil (the default) means no sharing.
	Store *bc.Store
	// Mixing is the linear self-consistency mixing factor in (0, 1].
	Mixing float64
	// MaxIter bounds the GF↔SSE iterations.
	MaxIter int
	// Tol is the relative change of the contact current at convergence.
	Tol float64
	// Progress, when non-nil, is called after every self-consistent
	// iteration with that iteration's stats (on rank 0) — the
	// cancel/telemetry hook the qt facade threads a context and its
	// streaming through. A non-nil return stops the run, which returns
	// the hook's error alongside the partial result. A rank cannot
	// abandon the collectives unilaterally, so the request rides the next
	// iteration's observable reduction, and that one iteration is
	// discarded.
	Progress func(IterStats) error
	// Tracer, when non-nil, records per-phase spans into the run's trace:
	// per-point BC and RGF solves and every graph node of a rank. Nil —
	// the default — costs one nil check per seam and keeps the hot path
	// allocation-free.
	Tracer *obs.Tracer

	// The one-rank knobs, which need the whole grid on one tile and the
	// whole state on one rank (dist refuses them above one): Kernel, when
	// non-nil, is the SSE implementation run in place of the tile kernel
	// of the run's precision (the kit defaults a nil one to sse.DaCe{});
	// Anderson replaces linear mixing with depth-1 Anderson acceleration,
	// an extension beyond the paper's solver (anderson.go), read only by
	// the one-rank window graph — the kit always mixes linearly; Warm, when
	// non-nil, seeds Σ≷/Π≷ in place of the cold Σ = 0 (ballistic) first
	// guess, copied, so one state can seed many concurrent runs (dist.Run
	// refuses one that does not Fit the device).
	Kernel   sse.Kernel
	Anderson bool
	Warm     *SigmaState
}

// WithDefaults returns l with every unset or out-of-range knob taken from
// DefaultOptions: a Mixing outside (0, 1], a MaxIter below 1, a Tol that
// is not positive and finite (NaN included) — under Tol ≤ 0 a run could
// never converge, under +Inf it would at iteration 1. It is the one place
// loop defaults are filled: New, dist.Options.Validate and qt call it.
func (l Loop) WithDefaults() Loop {
	def := DefaultOptions()
	if !(l.Mixing > 0 && l.Mixing <= 1) {
		l.Mixing = def.Mixing
	}
	if l.MaxIter <= 0 {
		l.MaxIter = def.MaxIter
	}
	if !(l.Tol > 0) || math.IsInf(l.Tol, 1) {
		l.Tol = def.Tol
	}
	return l
}

// NewPointSolver is the point solver of one loop's GF phase over the
// shard sh of dev: Σ≷/Π≷ for the shard's points only, a boundary cache in
// CacheMode over Store, its spans traced into Tracer under the given rank,
// one scratch for each of the workers of the pool that runs its solves,
// and Σ≷/Π≷ seeded from Warm when it is set, which needs a shard that is
// the whole grid (dist refuses Warm above one rank).
func (l Loop) NewPointSolver(dev *device.Device, sh *Shard, rank, workers int) *PointSolver {
	ps := newPointSolver(dev, l.CacheMode, len(sh.Pairs), len(sh.Points), sh.whole())
	ps.shard = sh
	ps.scratch = make([]*solveScratch, max(workers, 1))
	ps.BC.Store = l.Store
	ps.Trace = l.Tracer
	ps.TraceRank = rank
	if w := l.Warm; w != nil {
		copy(ps.SigL.Data, w.SigL.Data)
		copy(ps.SigG.Data, w.SigG.Data)
		copy(ps.PiL.Data, w.PiL.Data)
		copy(ps.PiG.Data, w.PiG.Data)
	}
	return ps
}

// SigmaState is the scattering self-energy state (Σ≷ and Π≷) a
// self-consistent loop ends on — the reusable artifact a near-identical
// simulation warm-starts from (Loop.Warm) instead of the cold Σ = 0
// first guess.
type SigmaState struct {
	SigL, SigG *tensor.Electron
	PiL, PiG   *tensor.Phonon
}

// Fits reports whether the state's tensor shapes match dev — the
// condition for seeding a loop over dev with it (Loop.Warm). A phonon
// tensor fits when its grid and its slot layout (tensor.Phonon.Off, the
// neighbour count of every atom) are the device's.
func (st *SigmaState) Fits(dev *device.Device) error {
	p := dev.P
	e := st.SigL
	if e == nil || st.SigG == nil || st.PiL == nil || st.PiG == nil {
		return fmt.Errorf("incomplete state (nil tensor)")
	}
	if e.Nkz != p.Nkz || e.NE != p.NE || e.Na != p.Na || e.Norb != p.Norb {
		return fmt.Errorf("electron shape [%d %d %d %d] does not match device [%d %d %d %d]",
			e.Nkz, e.NE, e.Na, e.Norb, p.Nkz, p.NE, p.Na, p.Norb)
	}
	for _, ph := range []*tensor.Phonon{st.PiL, st.PiG} {
		if ph.Nqz != p.Nqz() || ph.Nw != p.Nomega || ph.N3D != device.N3D || !slices.Equal(ph.Off, dev.SlotOff) {
			return fmt.Errorf("phonon shape %s does not match device [%d %d %d atoms/%d slots %d %d] or its neighbour counts",
				ph.ShapeString(), p.Nqz(), p.Nomega, p.Na, dev.SlotOff[p.Na], device.N3D, device.N3D)
		}
	}
	return nil
}

// Bytes reports the in-memory size of the four tensors — what a cache
// entry holding this state costs.
func (st *SigmaState) Bytes() int64 {
	if st == nil {
		return 0
	}
	return st.SigL.Bytes() + st.SigG.Bytes() + st.PiL.Bytes() + st.PiG.Bytes()
}

// DefaultOptions returns the settings used by the examples and tests. It
// is the one table of loop defaults, which Loop.WithDefaults fills an
// unset knob from.
func DefaultOptions() Loop {
	return Loop{CacheMode: bc.CacheBC, Mixing: 0.5, MaxIter: 25, Tol: 1e-5}
}

// Solver is the per-iteration kit of the self-consistent loop over the
// whole grid: GFPhase and SSEPhase, which a caller alternates itself
// (the benchmark's in-situ loop, the kernel tables). The loop that runs
// to convergence is dist.Run. The embedded PointSolver carries the
// tensors and boundary-condition cache shared with the per-point GF
// solves.
type Solver struct {
	*PointSolver
	// Opts is the resolved loop, of which the kit reads the cache mode,
	// the store, the tracer, the mixing factor, the kernel and the warm
	// start.
	Opts Loop

	// points holds the result slots every GF phase solves into, one per
	// point of the solver's shard, which covers both grids.
	points *PointResults

	Obs Observables
}

// IterStats is the one per-iteration telemetry row of the repo: the
// window graph's conv node fills it, dist and qt re-export it under their
// own names, and the report encoders, the SSE "iter" frames and the qtd
// registry key on its JSON form. Fields a run does not measure stay zero:
// a one-rank run moves no bytes.
type IterStats struct {
	Iter    int     `json:"iter"`
	Current float64 `json:"current"` // left-contact electron current (a.u.), global
	// Residual is the relative change of Current against the previous
	// iteration — 0 on iteration 0, where there is nothing to compare.
	Residual float64 `json:"residual"`

	ElEnergyLoss float64 `json:"el_energy_loss"` // R_e: electron energy lost to the lattice
	PhEnergyGain float64 `json:"ph_energy_gain"` // R_ph: energy absorbed by the phonon bath

	SSE sse.Stats `json:"sse"` // tile/kernel arithmetic counters, summed over ranks

	// SSEBytes is the traffic of the four Alltoallv exchanges (the encoded
	// wire volume under mixed precision); ReduceBytes is the one
	// observable Allreduce, which also carries the failure, convergence
	// and cancellation agreement.
	SSEBytes    int64 `json:"sse_bytes"`
	ReduceBytes int64 `json:"reduce_bytes"`
	// SigmaErr is the worst rank's normwise relative Σ≷/Π≷ deviation of
	// the mixed tile kernel against the fp64 kernel on identical inputs —
	// nonzero only with the error probe on.
	SigmaErr float64 `json:"sigma_err"`
	// FallbackBlocks counts the exchange segments the mixed-precision wire
	// encoder shipped as verbatim fp64, summed over ranks (0 under fp64
	// and at one rank, and omitted from JSON then).
	FallbackBlocks int64 `json:"fallback_blocks,omitempty"`

	// WallNs is the measured wall time of the iteration on rank 0;
	// ComputeNs and CommNs are rank 0's summed graph-node durations by
	// node kind.
	WallNs    int64 `json:"wall_ns"`
	ComputeNs int64 `json:"compute_ns"`
	CommNs    int64 `json:"comm_ns"`

	// Plan announces the resolved execution plan (qt's
	// Simulation.PlanString) on the first streamed row of a distributed
	// run; the loops leave it empty.
	Plan string `json:"plan,omitempty"`
}

// ErrNonFinite reports that the globally reduced contact current of
// iteration Iter came out NaN or ±Inf: the self-consistent state is
// poisoned and no later iteration can recover it.
type ErrNonFinite struct{ Iter int }

func (e ErrNonFinite) Error() string {
	return fmt.Sprintf("negf: non-finite contact current at iteration %d", e.Iter)
}

// ConvergenceStep is the convergence decision every self-consistent loop
// shares: the relative change of the contact current against the previous
// iteration, and whether it is under tol. Iteration 0 has nothing to
// compare (prev is ignored): residual 0, not converged. A non-finite
// current is ErrNonFinite on any iteration. Distributed callers pass the
// already-reduced current, so every rank takes the same branch.
func ConvergenceStep(it int, cur, prev, tol float64) (residual float64, converged bool, err error) {
	if math.IsNaN(cur) || math.IsInf(cur, 0) {
		return 0, false, ErrNonFinite{Iter: it}
	}
	if it == 0 {
		return 0, false, nil
	}
	residual = math.Abs(cur-prev) / math.Max(math.Abs(cur), 1e-300)
	return residual, residual < tol, nil
}

// New allocates the kit for dev, its GF phase sized to GOMAXPROCS
// workers. A nil Kernel takes sse.DaCe{}, and the loop knobs resolve
// through Loop.WithDefaults — the resolution dist.Options.Validate
// applies, so the two agree on an unset knob.
func New(dev *device.Device, opts Loop) *Solver {
	if opts.Kernel == nil {
		opts.Kernel = sse.DaCe{}
	}
	opts = opts.WithDefaults()
	sh := NewShard(dev, AllPairs(dev.P), AllPhononPoints(dev.P))
	return &Solver{
		PointSolver: opts.NewPointSolver(dev, sh, 0, runtime.GOMAXPROCS(0)),
		Opts:        opts,
		points:      sh.NewResults(),
	}
}

// ErrNotConverged reports that MaxIter was reached before Tol.
var ErrNotConverged = errors.New("negf: self-consistent loop did not converge")

// GFPhase computes all Green's functions for the current self-energies and
// refreshes the observables: the sweep over the full shard on the kit's
// workers, the fold, and the temperature map fitted from the folded
// spectra.
func (s *Solver) GFPhase() error {
	if err := s.sweep(s.points); err != nil {
		return err
	}
	s.fold(s.points, &s.Obs)
	s.Obs.AtomTemperature = FitTemperatures(s.Dev.P, s.Obs.PhononDOS, s.Obs.PhononOcc)
	return nil
}

// SSEPhase evaluates the scattering self-energies from the current Green's
// functions and mixes them linearly into the solver state.
func (s *Solver) SSEPhase() sse.Stats {
	out := s.Opts.Kernel.Compute(&sse.Input{
		Dev: s.Dev, GL: s.GL, GG: s.GG, DL: s.DL, DG: s.DG,
	})
	mix := s.Opts.Mixing
	s.SigL.Mix(out.SigL, mix)
	s.SigG.Mix(out.SigG, mix)
	s.PiL.Mix(out.PiL, mix)
	s.PiG.Mix(out.PiG, mix)
	return out.Stats
}
