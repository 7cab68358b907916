// Package negf orchestrates the self-consistent DFT+NEGF electro-thermal
// simulation: the GF phase (open-boundary conditions + RGF solves for all
// electron (kz, E) and phonon (qz, ω) points) alternating with the SSE
// phase (scattering self-energies) until the electronic current converges —
// the outer loop of Fig. 4 in the paper.
package negf

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sse"
)

// Loop is the one table of the knobs both self-consistent loops share:
// Options embeds it for the sequential Solver, dist.Options for the
// distributed window graph, and WithDefaults resolves it for both.
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
	// iteration with that iteration's stats (on rank 0 when distributed)
	// — the cancel/telemetry hook the qt facade threads a context and its
	// streaming through. A non-nil return stops the run, which returns
	// the hook's error alongside the partial result. The sequential loop
	// stops between iterations; a rank cannot abandon the collectives
	// unilaterally, so a distributed run rides the request on the next
	// iteration's observable reduction and discards that one iteration.
	Progress func(IterStats) error
	// Tracer, when non-nil, records per-phase spans into the run's trace:
	// per-point BC and RGF solves, and the iteration and phase envelopes
	// of the sequential loop or every graph node of a distributed rank.
	// Nil — the default — costs one nil check per seam and keeps the hot
	// path allocation-free.
	Tracer *obs.Tracer
}

// WithDefaults returns l with every unset or out-of-range knob taken from
// DefaultOptions: a Mixing outside (0, 1], a MaxIter below 1, a Tol that
// is not positive and finite (NaN included) — under Tol ≤ 0 a run could
// never converge, under +Inf it would at iteration 1. It is the one place
// loop defaults are filled: New, dist.Options.Validate and qt call it.
func (l Loop) WithDefaults() Loop {
	def := DefaultOptions().Loop
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

// NewPointSolver is the point solver of one loop's GF phase over dev: a
// boundary cache in CacheMode over Store, its spans traced into Tracer
// under the given rank (0 for the sequential solver).
func (l Loop) NewPointSolver(dev *device.Device, rank int) *PointSolver {
	ps := NewPointSolver(dev, l.CacheMode)
	ps.BC.Store = l.Store
	ps.Trace = l.Tracer
	ps.TraceRank = rank
	return ps
}

// Options configures a solver run: the shared loop knobs plus the SSE
// kernel and the accelerator only the sequential loop has.
type Options struct {
	Loop
	// Kernel selects the SSE implementation (default sse.DaCe{}).
	Kernel sse.Kernel
	// Anderson enables depth-1 Anderson acceleration of the
	// self-consistency iteration instead of plain linear mixing — an
	// extension beyond the paper's solver (see anderson.go).
	Anderson bool
}

// DefaultOptions returns the settings used by the examples and tests. It
// is the one table of loop defaults, which Loop.WithDefaults fills an
// unset knob from.
func DefaultOptions() Options {
	return Options{
		Kernel: sse.DaCe{},
		Loop:   Loop{CacheMode: bc.CacheBC, Mixing: 0.5, MaxIter: 25, Tol: 1e-5},
	}
}

// Solver holds the simulation state across iterations. The embedded
// PointSolver carries the tensors and boundary-condition cache shared with
// the per-point GF solves.
type Solver struct {
	*PointSolver
	Opts Options

	// The sequential solver owns the one shard covering both grids; points
	// holds the result slots every GF phase solves into.
	shard  *Shard
	points *PointResults

	anderson *andersonState
	Obs      Observables

	// IterTrace records per-iteration convergence data (Fig. 7b style).
	IterTrace []IterStats
}

// IterStats is the one per-iteration telemetry row of the repo: every
// self-consistent loop (the sequential Solver.Run and the distributed
// window graph) fills it, dist and qt re-export it under their own names,
// and the report encoders, the SSE "iter" frames and the qtd registry key
// on its JSON form. Fields a loop does not measure stay zero: a
// sequential run moves no bytes and has no compute/communication split.
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
	// and for sequential runs, and omitted from JSON then).
	FallbackBlocks int64 `json:"fallback_blocks,omitempty"`

	// WallNs is the measured wall time of the iteration (rank 0 when
	// distributed); ComputeNs and CommNs are rank 0's summed graph-node
	// durations by node kind, zero for sequential runs.
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

// New allocates a solver for dev. A nil Kernel takes sse.DaCe{}, and the
// loop knobs resolve through Loop.WithDefaults — the resolution
// dist.Options.Validate applies, so the two loops agree on an unset knob.
func New(dev *device.Device, opts Options) *Solver {
	if opts.Kernel == nil {
		opts.Kernel = DefaultOptions().Kernel
	}
	opts.Loop = opts.Loop.WithDefaults()
	s := &Solver{
		PointSolver: opts.NewPointSolver(dev, 0),
		Opts:        opts,
	}
	s.shard = NewShard(dev, AllPairs(dev.P), AllPhononPoints(dev.P))
	s.points = s.shard.NewResults()
	return s
}

// ErrNotConverged reports that MaxIter was reached before Tol.
var ErrNotConverged = errors.New("negf: self-consistent loop did not converge")

// Run executes the self-consistent GF↔SSE loop. It returns the final
// observables; ErrNotConverged still leaves valid (unconverged) results,
// ErrNonFinite (a NaN/Inf contact current) does not.
func (s *Solver) Run() (*Observables, error) {
	var prev float64
	tr := s.Opts.Tracer
	for it := 0; it < s.Opts.MaxIter; it++ {
		iterStart := time.Now()
		tIter := tr.Begin()
		tGF := tr.Begin()
		if err := s.GFPhase(); err != nil {
			return nil, fmt.Errorf("negf: GF phase (iteration %d): %w", it, err)
		}
		tr.End(s.TraceRank, 0, "gf", "gf/phase", it, -1, tGF)
		tSSE := tr.Begin()
		stats := s.SSEPhase()
		tr.End(s.TraceRank, 0, "sse", "sse/phase", it, -1, tSSE)
		tr.End(s.TraceRank, 0, "iter", "iter", it, -1, tIter)

		cur := s.Obs.CurrentL
		rel, converged, err := ConvergenceStep(it, cur, prev, s.Opts.Tol)
		if err != nil {
			return nil, err
		}
		st := IterStats{
			Iter: it, Current: cur, Residual: rel, SSE: stats,
			ElEnergyLoss: s.Obs.ElectronEnergyLoss, PhEnergyGain: s.Obs.PhononEnergyGain,
			WallNs: time.Since(iterStart).Nanoseconds(),
		}
		s.IterTrace = append(s.IterTrace, st)
		if s.Opts.Progress != nil {
			if err := s.Opts.Progress(st); err != nil {
				return &s.Obs, fmt.Errorf("negf: stopped after iteration %d: %w", it, err)
			}
		}
		if converged {
			return &s.Obs, nil
		}
		prev = cur
	}
	return &s.Obs, ErrNotConverged
}

// GFPhase computes all Green's functions for the current self-energies and
// refreshes the observables: the sweep over the full shard on all cores,
// the fold, and the temperature map fitted from the folded spectra.
func (s *Solver) GFPhase() error {
	if err := s.sweep(s.shard, runtime.GOMAXPROCS(0), s.points); err != nil {
		return err
	}
	s.fold(s.shard, s.points, &s.Obs)
	s.Obs.AtomTemperature = FitTemperatures(s.Dev.P, s.Obs.PhononDOS, s.Obs.PhononOcc)
	return nil
}

// SSEPhase evaluates the scattering self-energies from the current Green's
// functions and mixes them into the solver state.
func (s *Solver) SSEPhase() sse.Stats {
	out := s.Opts.Kernel.Compute(&sse.Input{
		Dev: s.Dev, GL: s.GL, GG: s.GG, DL: s.DL, DG: s.DG,
	})
	if s.Opts.Anderson {
		s.mixAnderson(out.SigL.Data, out.SigG.Data, out.PiL.Data, out.PiG.Data)
		return out.Stats
	}
	mix := s.Opts.Mixing
	s.SigL.Mix(out.SigL, mix)
	s.SigG.Mix(out.SigG, mix)
	s.PiL.Mix(out.PiL, mix)
	s.PiG.Mix(out.PiG, mix)
	return out.Stats
}
