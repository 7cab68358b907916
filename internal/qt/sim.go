package qt

import (
	"fmt"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/negf"
	"repro/internal/plan"
	"repro/internal/sse"
)

// Simulation is a validated, buildable experiment: the synthetic device
// plus the resolved execution configuration. It is immutable after New;
// every Start launches an independent solve against the shared
// (read-only) device, so one Simulation can back a whole sweep.
type Simulation struct {
	Spec   Spec
	Device *device.Device

	cfg config
	// store is the boundary store this simulation's solves share
	// decimations through: the process-wide one, always (tests swap in a
	// private store to observe a cold run).
	store *bc.Store
}

// New validates the configuration, builds the synthetic device and
// returns the runnable simulation.
func New(spec Spec, opts ...Option) (*Simulation, error) {
	spec = spec.withDefaults()
	cfg := defaultConfig(spec)
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, fmt.Errorf("qt: %w", err)
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("qt: %w", err)
	}
	if err := spec.validateProfile(); err != nil {
		return nil, err
	}
	dev, err := device.Build(cfg.params)
	if err != nil {
		return nil, fmt.Errorf("qt: %w", err)
	}
	if err := spec.applyProfile(dev); err != nil {
		return nil, err
	}
	if cfg.warm != nil {
		if err := cfg.warm.compatible(dev); err != nil {
			return nil, fmt.Errorf("qt: WithWarmStart: %w", err)
		}
	}
	if cfg.autoPlan && !cfg.planResolved {
		// Resolve the execution plan against the actual device: a short
		// calibration probe, then the argmin over the enumerated
		// candidates in the virtual-time cost model. The resolved knobs
		// become part of the configuration (and its content hash), so
		// rebuilding from Config keeps this plan instead of re-probing.
		pl, err := plan.Choose(dev, plan.Options{Ranks: cfg.ranks, Store: boundaries})
		if err != nil {
			return nil, fmt.Errorf("qt: auto plan: %w", err)
		}
		cfg.schedule = pl.Schedule
		cfg.workers = pl.Workers
		cfg.pipelineDepth = pl.PipelineDepth
		cfg.planResolved = true
	}
	// Reflect option-level overrides back into the exported Spec so it
	// always reports what is actually solved.
	spec.Bias = cfg.params.Vds
	return &Simulation{Spec: spec, Device: dev, cfg: cfg, store: boundaries}, nil
}

// PlanString renders the resolved execution plan of a distributed
// configuration ("pipeline w=2 d=2", with "[auto]" when the autotuner
// chose it) — what report and the qtd registry surface per run. Empty
// for sequential configurations.
func (s *Simulation) PlanString() string {
	if s.cfg.ranks == 0 {
		return ""
	}
	o := s.resolvedDist()
	str := o.Schedule.String()
	if s.cfg.workers > 0 {
		str += fmt.Sprintf(" w=%d", s.cfg.workers)
	}
	if s.cfg.schedule == Pipeline {
		str += fmt.Sprintf(" d=%d", o.PipelineDepth)
	}
	if s.cfg.autoPlan {
		str += " [auto]"
	}
	return str
}

// Ranks reports the configured world size (0 = sequential solver).
func (s *Simulation) Ranks() int { return s.cfg.ranks }

// Tiles reports the resolved Ta×TE tile split of the distributed SSE
// exchange (1×P when unset; zeros for sequential configurations).
func (s *Simulation) Tiles() (ta, te int) {
	if s.cfg.ranks == 0 {
		return 0, 0
	}
	o := s.resolvedDist()
	return o.Ta, o.TE
}

// resolvedDist returns the distributed options as dist.Run will see them,
// defaults filled by dist itself. New validated them, so the
// normalisation cannot fail here.
func (s *Simulation) resolvedDist() dist.Options {
	o, _ := s.cfg.distOptions(nil).Validate()
	return o
}

// sequentialKernel derives the sequential SSE kernel of the config.
func (c *config) sequentialKernel() sse.Kernel {
	switch {
	case c.sseKernel != nil:
		return c.sseKernel
	case c.precision == Mixed:
		return sse.Mixed{Normalize: true}
	case c.kernel == Baseline:
		return sse.OMEN{}
	default:
		return sse.DaCe{}
	}
}

// negfOptions assembles the sequential solver options.
func (c *config) negfOptions(progress func(IterStats) error) negf.Options {
	o := negf.DefaultOptions()
	o.Kernel = c.sequentialKernel()
	if !c.cacheBC {
		o.CacheMode = bc.NoCache
	}
	o.Mixing = c.mixing
	o.MaxIter = c.maxIter
	o.Tol = c.tol
	o.Anderson = c.anderson
	o.Progress = progress
	return o
}

// Ballistic solves the Green's functions once with zero scattering
// self-energies (the coherent-transport limit) and returns the
// observables without running the self-consistent loop. It always uses
// the sequential solver — a single GF phase has no exchange to
// distribute.
func (s *Simulation) Ballistic() (*negf.Observables, error) {
	no := s.cfg.negfOptions(nil)
	no.Store = s.store
	solver := negf.New(s.Device, no)
	if err := solver.GFPhase(); err != nil {
		return nil, fmt.Errorf("qt: %w", err)
	}
	return &solver.Obs, nil
}
