package qt

import (
	"fmt"

	"repro/internal/sse"
)

// A simulation has one configuration, the RunConfig it carries, and an
// Option is a write to it: each With* stores its argument in the knob's
// RunConfig field, in the wire spelling, so a knob set by an option and
// the same knob decoded from a request body are the same bytes before
// anything looks at them. Simulation.resolve (config.go) then does every
// combination check and all defaulting, once, for both entry points.
//
// Three things an option can say have no wire spelling and live beside
// the RunConfig in unwired: an injected Go kernel, a warm-start state,
// and an explicit zero bias. An explicit zero for any other knob has no
// spelling either — zero on the wire is "absent" — so the option that is
// handed one refuses it on the spot.

// Option configures a Simulation. Options are applied in order, later
// ones overwriting earlier ones; New cross-validates the result.
type Option func(*Simulation) error

// unwired is what an option can say that a RunConfig cannot.
type unwired struct {
	sseKernel sse.Kernel  // WithSSEKernel: a Go value; nil = derived from the config
	warm      *SigmaState // WithWarmStart: solver state; nil = cold start
	zeroBias  bool        // WithBias(0): Spec.Bias = 0 reads as "the default" on the wire
}

// explicit is how a numeric option ends: zero on the wire is "absent", so
// an explicit zero cannot be stored and is refused here. Whether any
// other value is in range is resolve's to say.
func explicit(opt string, nonzero bool) error {
	if !nonzero {
		return fmt.Errorf("%s: zero is the unset knob, not a value to ask for", opt)
	}
	return nil
}

// WithRanks selects the distributed solver on a simulated MPI world of
// p ranks. Without this option the sequential solver runs; p = 1 is a
// valid (single-rank) distributed world, useful for schedule and wire
// format testing.
func WithRanks(p int) Option {
	return func(s *Simulation) error {
		s.cfg.Ranks = p
		return explicit("WithRanks", p != 0)
	}
}

// WithSchedule selects the distributed execution schedule. Overlap and
// Pipeline require WithRanks.
func WithSchedule(sch Schedule) Option {
	return func(s *Simulation) error {
		if sch != Phases && sch != Overlap && sch != Pipeline {
			return fmt.Errorf("WithSchedule: unknown schedule %d", sch)
		}
		s.cfg.Schedule = sch.String()
		return nil
	}
}

// WithPipelineDepth sets the iteration-window size of the Pipeline
// schedule: how many self-consistent iterations the task graph spans at
// once (the dist default is 2 when unset). Depth 1 is exactly the Overlap
// schedule. Requires WithSchedule(Pipeline).
func WithPipelineDepth(d int) Option {
	return func(s *Simulation) error {
		s.cfg.PipelineDepth = d
		return explicit("WithPipelineDepth", d != 0)
	}
}

// WithAutoPlan hands schedule, worker pool and pipeline depth to the
// internal/plan autotuner: New runs a short calibration probe on the
// built device, scores every candidate plan in the virtual-time cost
// model, and applies the argmin to this run's own options. The resolved
// plan is written into the configuration (visible in Config and part of
// the content hash), so a cached or re-built run keeps the exact plan it
// was solved with instead of re-probing. Requires WithRanks; conflicts
// with WithWorkers and WithPipelineDepth on their own (the planner owns
// them) and with WithErrorProbe (the probe cannot ride a window deeper
// than 1, which the planner may select). Next to WithSchedule it is a
// recorded plan, exactly as auto_plan next to schedule is on the wire:
// New uses the knobs as given and does not probe.
func WithAutoPlan() Option {
	return func(s *Simulation) error {
		s.cfg.AutoPlan = true
		return nil
	}
}

// WithPrecision selects the SSE arithmetic: FP64 (default) or the §5.4
// Mixed path — normalized binary16 tile kernel, plus half-width wire
// payloads when distributed.
func WithPrecision(p Precision) Option {
	return func(s *Simulation) error {
		if p != FP64 && p != Mixed {
			return fmt.Errorf("WithPrecision: unknown precision %d", p)
		}
		s.cfg.Precision = p.String()
		return nil
	}
}

// WithKernel selects the sequential SSE schedule (DataCentric or the
// OMEN Baseline). The distributed solver always runs the data-centric
// exchange, so Baseline conflicts with WithRanks.
func WithKernel(k Kernel) Option {
	return func(s *Simulation) error {
		if k != DataCentric && k != Baseline {
			return fmt.Errorf("WithKernel: unknown kernel %d", k)
		}
		s.cfg.Kernel = k.String()
		return nil
	}
}

// WithSSEKernel injects a custom sequential SSE kernel — the advanced
// escape hatch the precision experiments use to wrap kernels (e.g. unit
// rescaling). Sequential only; overrides WithKernel/WithPrecision
// kernel derivation.
func WithSSEKernel(k sse.Kernel) Option {
	return func(s *Simulation) error {
		if k == nil {
			return fmt.Errorf("WithSSEKernel: kernel must be non-nil")
		}
		s.sseKernel = k
		return nil
	}
}

// WithMaxIterations bounds the self-consistent GF↔SSE iterations.
func WithMaxIterations(n int) Option {
	return func(s *Simulation) error {
		s.cfg.MaxIterations = n
		return explicit("WithMaxIterations", n != 0)
	}
}

// WithTolerance sets the relative contact-current change declaring
// convergence. Pass a tiny value (e.g. 1e-300) to run all iterations —
// the measuring-not-converging mode of the scaling sweeps.
func WithTolerance(tol float64) Option {
	return func(s *Simulation) error {
		s.cfg.Tolerance = tol
		return explicit("WithTolerance", tol != 0)
	}
}

// WithMixing sets the linear self-consistency mixing factor in (0, 1].
func WithMixing(m float64) Option {
	return func(s *Simulation) error {
		s.cfg.Mixing = m
		return explicit("WithMixing", m != 0)
	}
}

// WithBoundaryCache toggles cross-iteration boundary-condition caching
// (§7.1.2, default on).
func WithBoundaryCache(on bool) Option {
	return func(s *Simulation) error {
		s.cfg.NoBoundaryCache = !on
		return nil
	}
}

// WithAnderson enables depth-1 Anderson acceleration instead of plain
// linear mixing. Sequential only.
func WithAnderson() Option {
	return func(s *Simulation) error {
		s.cfg.Anderson = true
		return nil
	}
}

// WithBias overrides the drain-source bias (eV) after Spec defaulting,
// so an explicit zero bias is expressible — the knob the Sweep driver
// turns for I-V curves.
func WithBias(v float64) Option {
	return func(s *Simulation) error {
		s.cfg.Spec.Bias = v
		s.zeroBias = v == 0
		return nil
	}
}

// WithTiles sets the atom×energy tile split of the distributed SSE
// exchange (Ta·TE must equal the world size; a zero is inferred from
// the other factor). Requires WithRanks.
func WithTiles(ta, te int) Option {
	return func(s *Simulation) error {
		s.cfg.TileA, s.cfg.TileE = ta, te
		return explicit("WithTiles", ta != 0 || te != 0)
	}
}

// WithWorkers sets the per-rank worker pool of the task-graph schedules
// (Overlap, Pipeline). Requires WithRanks.
func WithWorkers(n int) Option {
	return func(s *Simulation) error {
		s.cfg.Workers = n
		return explicit("WithWorkers", n != 0)
	}
}

// WithErrorProbe enables the per-iteration fp64-reference quantization
// probe (IterStats.SigmaErr). Requires WithRanks and WithPrecision(Mixed);
// on the task graph it runs at window depth 1 only — WithSchedule(Overlap),
// or WithSchedule(Pipeline) with WithPipelineDepth(1).
func WithErrorProbe() Option {
	return func(s *Simulation) error {
		s.cfg.ErrorProbe = true
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
	return func(s *Simulation) error {
		s.cfg.Trace = true
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
	return func(s *Simulation) error {
		if st == nil {
			return fmt.Errorf("WithWarmStart: state must be non-nil")
		}
		s.warm = st
		return nil
	}
}
