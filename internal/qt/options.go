package qt

import (
	"fmt"
	"math"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/sse"
)

// config is the resolved experiment configuration an Option mutates.
// It starts from the defaulted Spec, so every knob has exactly one
// representation and an unset knob is simply an absent option.
type config struct {
	params device.Params

	ranks     int // 0 = sequential solver, >=1 = distributed world size
	schedule  Schedule
	precision Precision
	kernel    Kernel
	sseKernel sse.Kernel // sequential-only escape hatch; nil = derived

	maxIter    int
	tol        float64
	mixing     float64
	cacheBC    bool
	anderson   bool
	ta, te     int // distributed SSE tile split (0 = inferred)
	workers    int // 0 = dist default
	errorProbe bool
	trace      bool
	warm       *SigmaState // sequential-only Σ≷/Π≷ seed; nil = cold start

	pipelineDepth int // 0 = dist default; only valid with Pipeline
	// autoPlan defers schedule/workers/depth to the internal/plan
	// autotuner; planResolved marks a configuration whose resolved knobs
	// are already present (the RunConfig round-trip), so New must not
	// re-probe.
	autoPlan     bool
	planResolved bool
}

func defaultConfig(spec Spec) config {
	return config{
		params:  spec.params(),
		maxIter: 25,
		tol:     1e-5,
		mixing:  0.5,
		cacheBC: true,
	}
}

// Option configures a Simulation. Options are applied in order; each
// validates its own argument, and New cross-validates the combination.
type Option func(*config) error

// WithRanks selects the distributed solver on a simulated MPI world of
// p ranks. Without this option the sequential solver runs; p = 1 is a
// valid (single-rank) distributed world, useful for schedule and wire
// format testing.
func WithRanks(p int) Option {
	return func(c *config) error {
		if p < 1 {
			return fmt.Errorf("WithRanks: world size must be >= 1, got %d", p)
		}
		c.ranks = p
		return nil
	}
}

// WithSchedule selects the distributed execution schedule. Overlap and
// Pipeline require WithRanks.
func WithSchedule(s Schedule) Option {
	return func(c *config) error {
		if s != Phases && s != Overlap && s != Pipeline {
			return fmt.Errorf("WithSchedule: unknown schedule %d", s)
		}
		c.schedule = s
		return nil
	}
}

// WithPipelineDepth sets the iteration-window size of the Pipeline
// schedule: how many self-consistent iterations the task graph spans at
// once (the dist default is 2 when unset). Depth 1 is exactly the Overlap
// schedule. Requires WithSchedule(Pipeline).
func WithPipelineDepth(d int) Option {
	return func(c *config) error {
		if d < 1 {
			return fmt.Errorf("WithPipelineDepth: depth must be >= 1, got %d", d)
		}
		c.pipelineDepth = d
		return nil
	}
}

// WithAutoPlan hands schedule, worker pool and pipeline depth to the
// internal/plan autotuner: New runs a short calibration probe on the
// built device, scores every candidate plan in the virtual-time cost
// model, and applies the argmin to this run's own options. The resolved
// plan is written into the configuration (visible in Config and part of
// the content hash), so a cached or re-built run keeps the exact plan it
// was solved with instead of re-probing. Requires WithRanks; conflicts
// with explicitly setting any knob the planner owns (WithSchedule,
// WithWorkers, WithPipelineDepth) and with WithErrorProbe (the probe
// cannot ride a window deeper than 1, which the planner may select).
func WithAutoPlan() Option {
	return func(c *config) error {
		c.autoPlan = true
		return nil
	}
}

// withResolvedPlan marks the configuration's plan knobs as the recorded
// output of a previous auto-plan resolution — the RunConfig.Options
// round-trip path. New skips the probe and uses the knobs as given.
func withResolvedPlan() Option {
	return func(c *config) error {
		c.planResolved = true
		return nil
	}
}

// WithPrecision selects the SSE arithmetic: FP64 (default) or the §5.4
// Mixed path — normalized binary16 tile kernel, plus half-width wire
// payloads when distributed.
func WithPrecision(p Precision) Option {
	return func(c *config) error {
		if p != FP64 && p != Mixed {
			return fmt.Errorf("WithPrecision: unknown precision %d", p)
		}
		c.precision = p
		return nil
	}
}

// WithKernel selects the sequential SSE schedule (DataCentric or the
// OMEN Baseline). The distributed solver always runs the data-centric
// exchange, so Baseline conflicts with WithRanks.
func WithKernel(k Kernel) Option {
	return func(c *config) error {
		if k != DataCentric && k != Baseline {
			return fmt.Errorf("WithKernel: unknown kernel %d", k)
		}
		c.kernel = k
		return nil
	}
}

// WithSSEKernel injects a custom sequential SSE kernel — the advanced
// escape hatch the precision experiments use to wrap kernels (e.g. unit
// rescaling). Sequential only; overrides WithKernel/WithPrecision
// kernel derivation.
func WithSSEKernel(k sse.Kernel) Option {
	return func(c *config) error {
		if k == nil {
			return fmt.Errorf("WithSSEKernel: kernel must be non-nil")
		}
		c.sseKernel = k
		return nil
	}
}

// WithMaxIterations bounds the self-consistent GF↔SSE iterations.
func WithMaxIterations(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("WithMaxIterations: need at least one iteration, got %d", n)
		}
		c.maxIter = n
		return nil
	}
}

// WithTolerance sets the relative contact-current change declaring
// convergence. Pass a tiny value (e.g. 1e-300) to run all iterations —
// the measuring-not-converging mode of the scaling sweeps.
func WithTolerance(tol float64) Option {
	return func(c *config) error {
		if !(tol > 0) || math.IsInf(tol, 0) { // written to reject NaN too
			return fmt.Errorf("WithTolerance: tolerance must be positive and finite, got %g", tol)
		}
		c.tol = tol
		return nil
	}
}

// WithMixing sets the linear self-consistency mixing factor in (0, 1].
func WithMixing(m float64) Option {
	return func(c *config) error {
		if !(m > 0 && m <= 1) { // written to reject NaN too
			return fmt.Errorf("WithMixing: factor must be in (0, 1], got %g", m)
		}
		c.mixing = m
		return nil
	}
}

// WithBoundaryCache toggles cross-iteration boundary-condition caching
// (§7.1.2, default on).
func WithBoundaryCache(on bool) Option {
	return func(c *config) error {
		c.cacheBC = on
		return nil
	}
}

// WithAnderson enables depth-1 Anderson acceleration instead of plain
// linear mixing. Sequential only.
func WithAnderson() Option {
	return func(c *config) error {
		c.anderson = true
		return nil
	}
}

// WithBias overrides the drain-source bias (eV) after Spec defaulting,
// so an explicit zero bias is expressible — the knob the Sweep driver
// turns for I-V curves.
func WithBias(v float64) Option {
	return func(c *config) error {
		c.params.Vds = v
		return nil
	}
}

// WithTiles sets the atom×energy tile split of the distributed SSE
// exchange (Ta·TE must equal the world size; a zero is inferred from
// the other factor). Requires WithRanks.
func WithTiles(ta, te int) Option {
	return func(c *config) error {
		if ta < 0 || te < 0 || ta+te == 0 {
			return fmt.Errorf("WithTiles: tile counts must be positive (one may be 0 to infer), got %d×%d", ta, te)
		}
		c.ta, c.te = ta, te
		return nil
	}
}

// WithWorkers sets the per-rank worker pool of the task-graph schedules
// (Overlap, Pipeline). Requires WithRanks.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("WithWorkers: need at least one worker, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithErrorProbe enables the per-iteration fp64-reference quantization
// probe (IterStats.SigmaErr). Requires WithRanks and WithPrecision(Mixed);
// on the task graph it runs at window depth 1 only — WithSchedule(Overlap),
// or WithSchedule(Pipeline) with WithPipelineDepth(1).
func WithErrorProbe() Option {
	return func(c *config) error {
		c.errorProbe = true
		return nil
	}
}

// WithTrace enables per-phase span recording for the run: iteration
// boundaries, per-point BC and RGF solves, and — when distributed — the
// SSE exchanges, tile kernel, and observable reductions of every rank.
// The finished run's Result.Spans carries the recording (exportable as
// Chrome/Perfetto trace-event JSON via its WriteChrome). Off by
// default: untraced runs pay only a nil check per seam.
func WithTrace() Option {
	return func(c *config) error {
		c.trace = true
		return nil
	}
}

// WithWarmStart seeds the self-consistent loop with a previous run's
// scattering self-energy state instead of the cold Σ≷ = Π≷ = 0 ballistic
// guess — the near-identical-request accelerator of the qtd result
// cache: a converged neighbouring-bias state starts the loop close to
// its fixed point, cutting the iteration count. Sequential solver only;
// the state's tensor shapes must match the Spec's device (checked by
// New). The seed is copied at Start, so one cached state can seed many
// concurrent runs.
func WithWarmStart(st *SigmaState) Option {
	return func(c *config) error {
		if st == nil {
			return fmt.Errorf("WithWarmStart: state must be non-nil")
		}
		c.warm = st
		return nil
	}
}

// validate cross-checks the assembled configuration.
func (c *config) validate() error {
	if err := c.params.Validate(); err != nil {
		return err
	}
	if c.ranks == 0 {
		// Sequential solver.
		if c.schedule != Phases {
			return fmt.Errorf("WithSchedule(%v) requires WithRanks", c.schedule)
		}
		if c.ta != 0 || c.te != 0 {
			return fmt.Errorf("WithTiles requires WithRanks")
		}
		if c.workers != 0 {
			return fmt.Errorf("WithWorkers requires WithRanks")
		}
		if c.pipelineDepth != 0 {
			return fmt.Errorf("WithPipelineDepth requires WithRanks")
		}
		if c.autoPlan {
			return fmt.Errorf("WithAutoPlan requires WithRanks: the planner chooses among distributed schedules")
		}
		if c.kernel == Baseline && c.precision == Mixed {
			return fmt.Errorf("WithKernel(Baseline) conflicts with WithPrecision(Mixed): the baseline loop nest has no binary16 form")
		}
		if c.sseKernel != nil && (c.kernel == Baseline || c.precision == Mixed) {
			return fmt.Errorf("WithSSEKernel overrides the kernel: do not combine it with WithKernel or WithPrecision")
		}
	} else {
		// Distributed solver.
		if c.warm != nil {
			return fmt.Errorf("WithWarmStart requires the sequential solver")
		}
		if c.kernel == Baseline {
			return fmt.Errorf("WithKernel(Baseline) requires the sequential solver: the distributed SSE exchange is data-centric by construction")
		}
		if c.sseKernel != nil {
			return fmt.Errorf("WithSSEKernel requires the sequential solver")
		}
		if c.anderson {
			return fmt.Errorf("WithAnderson requires the sequential solver")
		}
		if c.pipelineDepth != 0 && c.schedule != Pipeline {
			return fmt.Errorf("WithPipelineDepth requires WithSchedule(Pipeline)")
		}
		if c.schedule == Pipeline && c.errorProbe && c.pipelineDepth != 1 {
			return fmt.Errorf("WithErrorProbe requires WithPipelineDepth(1) under WithSchedule(Pipeline): the probe's blocking max-reduction would serialize a deeper iteration window")
		}
		if c.autoPlan {
			if c.errorProbe {
				return fmt.Errorf("WithErrorProbe conflicts with WithAutoPlan: the planner may select a window deeper than 1, which cannot run the probe")
			}
			if !c.planResolved && (c.schedule != Phases || c.workers != 0 || c.pipelineDepth != 0) {
				return fmt.Errorf("WithAutoPlan owns the schedule, worker and pipeline-depth knobs: drop WithSchedule/WithWorkers/WithPipelineDepth")
			}
		}
		if _, err := c.distOptions(nil).Validate(); err != nil {
			return err
		}
	}
	if c.errorProbe && (c.ranks == 0 || c.precision != Mixed) {
		return fmt.Errorf("WithErrorProbe requires WithRanks and WithPrecision(Mixed)")
	}
	return nil
}

// distOptions assembles the dist.Options of this configuration.
func (c *config) distOptions(progress func(IterStats) error) dist.Options {
	o := dist.DefaultOptions(c.ranks)
	o.Ta, o.TE = c.ta, c.te
	if !c.cacheBC {
		o.CacheMode = bc.NoCache
	}
	o.Mixing = c.mixing
	o.MaxIter = c.maxIter
	o.Tol = c.tol
	o.Schedule = c.schedule
	o.PipelineDepth = c.pipelineDepth
	o.Workers = c.workers
	o.Precision = c.precision
	o.ErrorProbe = c.errorProbe
	o.Progress = progress
	return o
}
