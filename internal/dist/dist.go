// Package dist runs the full self-consistent NEGF loop — the GF phase
// (boundary conditions + RGF over all electron (kz, E) and phonon (qz, ω)
// points) and the SSE phase (scattering self-energies) — distributed
// across P simulated MPI ranks on the internal/comm runtime. It is the
// end-to-end form of the paper's distributed solver, and the only
// self-consistent loop of the repo: where internal/decomp distributes
// only the SSE exchange of a single iteration, dist keeps a persistent
// rank state across iterations and alternates the two phases until the
// contact current converges. A run without ranks is the one-rank world,
// whose exchanges ship nothing (a rank's own share stays in place).
//
// Data distribution follows the GF-phase ownership the paper assumes
// (§5.2): the flattened electron (kz, E) pairs and phonon (qz, ω) points
// are block-distributed over the ranks (decomp.OMENLayout). Each rank
// runs its own boundary-condition cache (§7.1.2) and RGF solves for its
// owned points, then participates in the four Alltoallv exchanges of the
// communication-avoiding DaCe SSE decomposition (decomp.DaCePlan) and an
// Allreduce of the observables, so every iteration's left-contact current
// — and hence the convergence decision — is globally consistent.
//
// There is one engine. buildWindowGraph — the only place that lists an
// iteration's steps — is each rank's compile step: once per run it lays
// out the dataflow graph of one window over a ring of iteration slots,
// which own what an iteration writes (point results, partials, the
// reduction's payload and the requests) but the rank's one tile plan
// (tile output, compiled tile, exchange state), which the slots share,
// and the exchanges' rows, which comm recycles. An internal/sdfg worker
// pool runs that one graph for every window, re-arming the slots in
// between, so an iteration allocates nothing of its own. A rank holds
// Σ≷/Π≷ for its owned points only. A Schedule is an
// execution order of that graph, i.e. a window depth and a pool size,
// and the bulk-synchronous phases are the depth-1 window on one worker.
//
// The per-iteration currents at P ranks match the one-rank run to
// floating-point reduction ordering (≲1e-12 relative), and every schedule
// at one P matches every other bit for bit, which the package tests
// assert for P ∈ {1, 2, 4, 8} over the schedule table.
package dist

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/negf"
)

// MixedCurrentTol is the documented mixed-precision acceptance tolerance:
// the per-iteration left-contact current of a decomp.Mixed run must
// match the one-rank fp64 run within this relative deviation for
// any world size and every schedule. The binary16 mantissa carries 11
// bits (ε₁₆ ≈ 4.9e-4 relative per rounding); the quantized Σ≷ feed back
// through the damped (mixing 0.5) self-consistent loop, and the current
// — an integral observable — lands two to three orders looser than a
// single rounding. The package regression tests assert this bound for
// P ∈ {1, 2, 4, 8}.
const MixedCurrentTol = 1e-2

// Schedule names one execution order of the per-rank dataflow graph
// (buildWindowGraph). There is one engine; a schedule only sets how many
// self-consistent iterations one graph spans (the window depth) and how
// many workers run it, and Validate resolves it to those two integers.
// Per-iteration arithmetic — accumulation order, mixing, reduction
// association — is the graph's, so all three record bitwise-equal
// currents.
type Schedule int

const (
	// SchedulePhases is the bulk-synchronous order: depth 1 on one
	// worker, which runs the graph's nodes (GF solves, G≷/D≷ exchange,
	// tile, Σ≷/Π≷ exchange, mixing, observable reduction) strictly one
	// after another and blocks in every wait, so nothing overlaps within
	// a rank — §4's claim that the phases are one order of the dataflow
	// program, not a second program.
	SchedulePhases Schedule = iota
	// ScheduleOverlap is depth 1 on a work-stealing pool of Workers
	// (internal/sdfg): the four SSE exchanges are posted as soon as this
	// rank's own points finish and complete behind the remaining point
	// solves and collision partials — the §7.1.3 overlap.
	ScheduleOverlap
	// SchedulePipeline spans PipelineDepth iterations per graph on the
	// same pool: iteration n+1's point solves start as soon as the mixed
	// Σ≷/Π≷ of iteration n is available for their points, and a conv
	// fence node per iteration discards speculated work when convergence
	// (or a failure or cancellation riding the reduction) lands — only the
	// iteration barrier is gone.
	SchedulePipeline
)

func (s Schedule) String() string {
	switch s {
	case ScheduleOverlap:
		return "overlap"
	case SchedulePipeline:
		return "pipeline"
	}
	return "phases"
}

// Options configures a distributed run: the loop knobs (negf.Loop), plus
// the world, its tiling, the schedule, the precision and the probe.
type Options struct {
	negf.Loop
	// Ranks is the simulated world size P.
	Ranks int
	// Ta, TE are the atom×energy tile split of the SSE exchange
	// (Ta·TE must equal Ranks). Leaving both zero defaults to Ta=1,
	// TE=Ranks — pure energy tiling, the natural choice when Bnum is
	// small; leaving one zero infers it from the other (Ranks/Ta or
	// Ranks/TE).
	Ta, TE int
	// Schedule selects the execution order of the iteration graph
	// (default SchedulePhases).
	Schedule Schedule
	// Workers is the per-rank worker-pool size of ScheduleOverlap and
	// SchedulePipeline (default 2: one worker can block in a collective
	// wait while the other computes). SchedulePhases is the one-worker
	// order by definition: Validate resolves it to 1.
	Workers int
	// PipelineDepth is the iteration-window size: how many
	// self-consistent iterations one task graph spans before the ranks
	// drain and the next window is built. SchedulePipeline takes any
	// depth >= 1 (default 2); SchedulePhases and ScheduleOverlap are
	// depth 1 by definition — Validate resolves them to 1, and asking
	// for anything else under them is a configuration error.
	PipelineDepth int
	// Precision selects decomp.FP64 (default) or decomp.Mixed, the §5.4
	// mixed binary16 SSE path: every rank's tile runs the normalized
	// binary16 SSE kernel and the four Alltoallv exchanges ship
	// half-width split-complex wire payloads, cutting the measured SSE
	// traffic ≳2.5× at the default Norb=2 (asymptotically 4×) while the
	// GF phase stays fp64.
	Precision decomp.Precision
	// ErrorProbe (decomp.Mixed only) additionally runs the fp64 tile
	// kernel each iteration and reports the worst rank's normwise Σ≷/Π≷
	// deviation in IterStats.SigmaErr — per-iteration quantization
	// telemetry at the cost of doubling the tile compute. Each rank's
	// probe numbers ride the iteration's observable reduction, so the
	// probe runs under every schedule and window depth.
	ErrorProbe bool
}

// Validate reports whether the options describe a runnable
// configuration, without running it — the facade's and the planner's
// pre-flight check — and returns them as Run will see them: every default
// filled, the tile split inferred and the schedule resolved, so a caller
// that displays, hashes or scores the resolved Ta/TE/PipelineDepth/Workers
// reads them here instead of re-deriving the rules.
func (o Options) Validate() (Options, error) {
	if o.Ranks <= 0 {
		return o, fmt.Errorf("dist: world size must be positive, got %d", o.Ranks)
	}
	switch {
	case o.Ta == 0 && o.TE == 0:
		o.Ta, o.TE = 1, o.Ranks
	case o.Ta == 0 && o.TE > 0 && o.Ranks%o.TE == 0:
		o.Ta = o.Ranks / o.TE
	case o.TE == 0 && o.Ta > 0 && o.Ranks%o.Ta == 0:
		o.TE = o.Ranks / o.Ta
	}
	if o.Ta <= 0 || o.TE <= 0 || o.Ta*o.TE != o.Ranks {
		return o, fmt.Errorf("dist: tile split %d×%d does not cover %d ranks", o.Ta, o.TE, o.Ranks)
	}
	// NaN compares false against every range check below and would reach
	// tensor.MixSlice and the convergence test as is.
	for _, v := range []float64{o.Mixing, o.Tol} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return o, fmt.Errorf("dist: Mixing and Tol must be finite, got %g and %g", o.Mixing, o.Tol)
		}
	}
	// Unset or out of range takes the loop default, by Loop.WithDefaults.
	o.Loop = o.Loop.WithDefaults()
	if o.Ranks > 1 && (o.Kernel != nil || o.Anderson || o.Warm != nil) {
		return o, fmt.Errorf("dist: Kernel, Anderson and Warm need the whole state on one rank, got %d ranks", o.Ranks)
	}
	if o.Precision != decomp.FP64 && o.Precision != decomp.Mixed {
		return o, fmt.Errorf("dist: unknown precision %d", o.Precision)
	}
	// A kernel replaces the tile of the run's precision, so it would
	// silently displace the mixed tile and leave the probe reading 0.
	if o.Kernel != nil && (o.Precision == decomp.Mixed || o.ErrorProbe) {
		return o, fmt.Errorf("dist: Kernel replaces the precision's tile; it cannot run with decomp.Mixed or ErrorProbe")
	}
	if o.Precision != decomp.Mixed {
		o.ErrorProbe = false
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	// The schedule resolves to (window depth, pool size) here and
	// nowhere else: the engine reads only the two integers.
	switch o.Schedule {
	case SchedulePhases, ScheduleOverlap:
		if o.PipelineDepth != 0 && o.PipelineDepth != 1 {
			return o, fmt.Errorf("dist: PipelineDepth %d requires SchedulePipeline", o.PipelineDepth)
		}
		o.PipelineDepth = 1
		if o.Schedule == SchedulePhases {
			o.Workers = 1
		}
	case SchedulePipeline:
		if o.PipelineDepth == 0 {
			o.PipelineDepth = 2
		}
		if o.PipelineDepth < 1 {
			return o, fmt.Errorf("dist: pipeline depth must be >= 1, got %d", o.PipelineDepth)
		}
	default:
		return o, fmt.Errorf("dist: unknown schedule %d", o.Schedule)
	}
	return o, nil
}

// IterStats is the per-iteration telemetry row every loop of the repo
// shares; see negf.IterStats.
type IterStats = negf.IterStats

// RankLoad reports one rank's share of the work — the load-balance view
// of the block distribution, reduced onto rank 0 with the epilogue's
// spectra.
type RankLoad struct {
	Rank       int
	Pairs      int // owned electron (kz, E) points
	Points     int // owned phonon (qz, ω) points
	BCComputes int // Sancho–Rubio decimations the rank ran (misses its cache and the store could not serve)
}

// Result is the outcome of a distributed run.
type Result struct {
	// Obs holds the globally reduced observables of the final iteration;
	// every field matches the one-rank run up to reduction ordering.
	Obs negf.Observables
	// IterTrace records per-iteration convergence data, identical in
	// Current/Residual to the one-rank run's trace within 1e-12.
	IterTrace []IterStats
	Converged bool
	// Final is the Σ≷/Π≷ state of a one-rank run after its last reported
	// iteration — its tensors, handed over, not copied. It is nil above
	// one rank, where no rank holds the whole state, and when a discarded
	// iteration has already mixed into the state: after a stop request,
	// or after convergence inside a window deeper than one.
	Final *negf.SigmaState
	// Comm is the world's total communication counters for the whole run.
	Comm comm.Stats
	// Load is the per-rank work distribution.
	Load []RankLoad

	// stopErr records a Progress-hook cancellation (rank 0 writes it
	// before World.Run returns, which orders the access).
	stopErr error
}

// Run executes the distributed self-consistent loop on a fresh P-rank
// world. Non-convergence is reported via negf.ErrNotConverged alongside
// the (valid, unconverged) result; a non-finite global current is
// negf.ErrNonFinite with no result.
func Run(dev *device.Device, opts Options) (*Result, error) {
	opts, err := opts.Validate()
	if err != nil {
		return nil, err
	}
	if opts.Warm != nil {
		if err := opts.Warm.Fits(dev); err != nil {
			return nil, fmt.Errorf("dist: Warm: %w", err)
		}
	}
	w := comm.NewWorld(opts.Ranks)
	res := &Result{}
	if err := w.Run(func(c *comm.Comm) error { return runRankWindow(c, dev, opts, res) }); err != nil {
		return nil, err
	}
	res.Comm = w.Stats()
	if res.stopErr != nil {
		return res, res.stopErr
	}
	if !res.Converged {
		return res, negf.ErrNotConverged
	}
	return res, nil
}
