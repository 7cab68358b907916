package qt

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/negf"
	"repro/internal/obs"
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

// build constructs the device of the resolved configuration and checks
// what needs the device: the warm-start shape. The configuration is not
// touched: what resolve made of it is what the simulation runs.
func (s *Simulation) build() error {
	s.Spec = s.cfg.Spec
	dev, err := s.Spec.device()
	if err != nil {
		return err
	}
	s.Device = dev
	if s.warm != nil {
		if err := s.warm.Fits(dev); err != nil {
			return fmt.Errorf("qt: WithWarmStart: %w", err)
		}
	}
	return nil
}

// PlanString renders the resolved execution plan of a distributed
// configuration ("pipeline w=2 d=2", with "[auto]" when the plan rule
// chose it) — what report and the qtd registry surface per run. Empty
// for configurations without ranks.
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

// loop lowers the loop knobs: the one negf.Loop dist.Options embeds.
// The kernel, the accelerator and the warm start are one-rank knobs,
// which resolve admits only without ranks. dist fills what is unset.
func (s *Simulation) loop(progress func(IterStats) error, tracer *obs.Tracer) negf.Loop {
	l := negf.Loop{
		Store: s.store, Mixing: s.cfg.Mixing, MaxIter: s.cfg.MaxIterations, Tol: s.cfg.Tolerance,
		Progress: progress, Tracer: tracer,
		Anderson: s.cfg.Anderson, Warm: s.warm,
	}
	if s.cfg.NoBoundaryCache {
		l.CacheMode = bc.NoCache
	}
	if s.cfg.kernel() == Baseline {
		l.Kernel = sse.OMEN{}
	}
	return l
}

// distOptions lowers the configuration for the solver: the loop knobs
// plus the world, the tile split and the plan. A configuration without
// ranks is the one-rank world on the overlap order over a pool of
// GOMAXPROCS workers — a lowering, not a resolution, so the RunConfig
// (and its key) keeps the ranks absent.
func (s *Simulation) distOptions(progress func(IterStats) error, tracer *obs.Tracer) dist.Options {
	o := dist.Options{
		Loop:  s.loop(progress, tracer),
		Ranks: s.cfg.Ranks, Ta: s.cfg.TileA, TE: s.cfg.TileE,
		Schedule: s.cfg.schedule(), Workers: s.cfg.Workers, PipelineDepth: s.cfg.PipelineDepth,
		Precision: s.cfg.precision(), ErrorProbe: s.cfg.ErrorProbe,
	}
	if s.cfg.Ranks == 0 {
		o.Ranks, o.Schedule, o.Workers = 1, Overlap, runtime.GOMAXPROCS(0)
	}
	return o
}

// Ballistic solves the Green's functions once with zero scattering
// self-energies (the coherent-transport limit) and returns the
// observables: iteration 0 of the one loop, without the warm start, on
// the one-rank world whatever the configuration's ranks (the GF phase has
// no exchange to distribute), stopped there unconverged.
func (s *Simulation) Ballistic() (*negf.Observables, error) {
	o := s.distOptions(nil, nil)
	o.Ranks, o.Ta, o.TE = 1, 0, 0
	o.Warm, o.MaxIter = nil, 1
	res, err := dist.Run(s.Device, o)
	if err != nil && !errors.Is(err, negf.ErrNotConverged) {
		return nil, fmt.Errorf("qt: %w", err)
	}
	return &res.Obs, nil
}
