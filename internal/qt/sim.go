package qt

import (
	"fmt"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/negf"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sse"
)

// Simulation is a validated, buildable experiment: the synthetic device
// plus the resolved execution configuration. It is immutable after
// NewFromConfig; every Start launches an independent solve against the
// shared (read-only) device, so one Simulation can back many runs.
type Simulation struct {
	Spec   Spec
	Device *device.Device

	// cfg is the configuration: raw as NewFromConfig is handed it,
	// resolved from then on (see RunConfig).
	cfg RunConfig
	unwired
	// store is the boundary store this simulation's solves share
	// decimations through: the process-wide one, always (tests swap in a
	// private store to observe a cold run).
	store *bc.Store
}

// build constructs the device of the resolved configuration and settles
// what needs the device: the warm-start shape check and the auto plan.
func (s *Simulation) build() error {
	s.Spec = s.cfg.Spec
	dev, err := s.Spec.device()
	if err != nil {
		return err
	}
	s.Device = dev
	if s.warm != nil {
		if err := s.warm.compatible(dev); err != nil {
			return fmt.Errorf("qt: WithWarmStart: %w", err)
		}
	}
	if s.cfg.AutoPlan && s.cfg.Schedule == "" {
		// A plan request: resolve it against the actual device — a short
		// calibration probe, then the argmin over the enumerated candidates
		// in the virtual-time cost model. Written into the configuration
		// the knobs are a recorded plan (and part of its content hash), so
		// rebuilding from Config keeps this plan instead of re-probing.
		pl, err := plan.Choose(dev, plan.Options{Ranks: s.cfg.Ranks, Store: s.store})
		if err != nil {
			return fmt.Errorf("qt: auto plan: %w", err)
		}
		s.cfg.Schedule = pl.Schedule.String()
		s.cfg.Workers = pl.Workers
		s.cfg.PipelineDepth = pl.PipelineDepth
	}
	return nil
}

// PlanString renders the resolved execution plan of a distributed
// configuration ("pipeline w=2 d=2", with "[auto]" when the autotuner
// chose it) — what report and the qtd registry surface per run. Empty
// for sequential configurations.
func (s *Simulation) PlanString() string {
	if s.cfg.Ranks == 0 {
		return ""
	}
	// The schedule and depth as dist.Run will see them, defaults filled by
	// dist itself; resolve validated them, so this cannot fail.
	o, _ := s.distOptions(nil, nil).Validate()
	str := o.Schedule.String()
	if s.cfg.Workers > 0 {
		str += fmt.Sprintf(" w=%d", s.cfg.Workers)
	}
	if o.Schedule == Pipeline {
		str += fmt.Sprintf(" d=%d", o.PipelineDepth)
	}
	if s.cfg.AutoPlan {
		str += " [auto]"
	}
	return str
}

// loopOptions lowers the knobs the two self-consistent loops share, over
// negf's defaults. It returns them as negf.Options; distOptions carries
// them over by name.
func (s *Simulation) loopOptions(progress func(IterStats) error, tracer *obs.Tracer) negf.Options {
	o := negf.DefaultOptions()
	if s.cfg.NoBoundaryCache {
		o.CacheMode = bc.NoCache
	}
	o.Store = s.store
	o.Mixing = s.cfg.Mixing
	o.MaxIter = s.cfg.MaxIterations
	o.Tol = s.cfg.Tolerance
	o.Progress = progress
	o.Tracer = tracer
	return o
}

// negfOptions lowers the configuration for the sequential solver: the
// loop knobs plus the accelerator and the SSE kernel, when it is not the
// default one.
func (s *Simulation) negfOptions(progress func(IterStats) error, tracer *obs.Tracer) negf.Options {
	o := s.loopOptions(progress, tracer)
	o.Anderson = s.cfg.Anderson
	switch {
	case s.sseKernel != nil:
		o.Kernel = s.sseKernel
	case s.cfg.precision() == Mixed:
		o.Kernel = sse.Mixed{Normalize: true}
	case s.cfg.kernel() == Baseline:
		o.Kernel = sse.OMEN{}
	}
	return o
}

// distOptions lowers the configuration for the distributed solver: the
// loop knobs plus the world, the tile split and the plan.
func (s *Simulation) distOptions(progress func(IterStats) error, tracer *obs.Tracer) dist.Options {
	l := s.loopOptions(progress, tracer)
	return dist.Options{
		Ranks: s.cfg.Ranks, Ta: s.cfg.TileA, TE: s.cfg.TileE,
		CacheMode: l.CacheMode, Store: l.Store,
		Mixing: l.Mixing, MaxIter: l.MaxIter, Tol: l.Tol,
		Schedule: s.cfg.schedule(), Workers: s.cfg.Workers, PipelineDepth: s.cfg.PipelineDepth,
		Precision: s.cfg.precision(), ErrorProbe: s.cfg.ErrorProbe,
		Progress: l.Progress, Tracer: l.Tracer,
	}
}

// Ballistic solves the Green's functions once with zero scattering
// self-energies (the coherent-transport limit) and returns the
// observables without running the self-consistent loop. It always uses
// the sequential solver — a single GF phase has no exchange to
// distribute.
func (s *Simulation) Ballistic() (*negf.Observables, error) {
	solver := negf.New(s.Device, s.negfOptions(nil, nil))
	if err := solver.GFPhase(); err != nil {
		return nil, fmt.Errorf("qt: %w", err)
	}
	return &solver.Obs, nil
}
