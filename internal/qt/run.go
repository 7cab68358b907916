package qt

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/negf"
	"repro/internal/obs"
)

// IterStats is the unified per-iteration telemetry schema shared by the
// sequential and distributed solvers — the row type every report
// encoder and streaming consumer keys on. It is the loops' own row
// (negf.IterStats), not a copy: what a run streams is what its solver
// recorded, plus the Plan announcement on the first distributed row.
type IterStats = negf.IterStats

// Result summarizes a finished (converged, capped, or cancelled) run.
type Result struct {
	// Converged reports whether the self-consistent loop reached the
	// configured tolerance within the iteration budget.
	Converged  bool `json:"converged"`
	Iterations int  `json:"iterations"`
	// Current is the source-contact electron current (a.u.).
	Current float64 `json:"current"`
	// MaxTemperature is the hottest lattice temperature (K) and HotSpot
	// its slab index — the Joule-heating signature of Fig. 1(d).
	MaxTemperature float64 `json:"max_temperature"`
	HotSpot        int     `json:"hot_spot"`
	// EnergyBalance is phonon gain / electron loss; 1 means perfect
	// conservation between the two baths.
	EnergyBalance float64 `json:"energy_balance"`
	// Trace is the full per-iteration telemetry in the unified schema —
	// identical to what the run streamed.
	Trace []IterStats `json:"trace"`
	// Observables exposes the full per-slab/per-atom detail.
	Observables *negf.Observables `json:"-"`
	// Comm holds the world's communication counters and Load the
	// per-rank work distribution; both are nil for sequential runs.
	Comm *comm.Stats     `json:"comm,omitempty"`
	Load []dist.RankLoad `json:"load,omitempty"`
	// FinalState is the Σ≷/Π≷ state the sequential loop ended on — the
	// artifact WithWarmStart seeds a near-identical run from. Nil for
	// distributed runs; never serialized (it is solver state, not a
	// result row).
	FinalState *SigmaState `json:"-"`
	// Spans is the per-phase span recording of a traced run (nil
	// otherwise) — export it with Spans.WriteChrome for Perfetto. Not
	// serialized here: the qtd registry stores the Chrome form as its
	// own artifact.
	Spans *obs.Trace `json:"-"`
}

// Run is the handle of one in-flight solve.
type Run struct {
	stats chan IterStats
	done  chan struct{}

	res *Result
	err error
}

// Stats streams one IterStats per self-consistent iteration while the
// run executes, in iteration order, and is closed when the run ends.
// The channel is buffered for the full iteration budget, so a consumer
// that reads late (or not at all) never blocks the solver.
func (r *Run) Stats() <-chan IterStats { return r.stats }

// Wait blocks until the run finishes and returns its result. On
// cancellation it returns the partial result of the completed
// iterations together with the context's error; ErrNotConverged is not
// an error here — it is reported through Result.Converged.
func (r *Run) Wait() (*Result, error) {
	<-r.done
	return r.res, r.err
}

// Start launches the solve and returns its handle. The context is
// observed between self-consistent iterations — on cancellation every
// simulated rank agrees to stop, the solver drains cleanly (no leaked
// goroutines) and Wait returns the partial result with ctx's error.
func (s *Simulation) Start(ctx context.Context) (*Run, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("qt: %w", err)
	}
	r := &Run{
		stats: make(chan IterStats, s.cfg.MaxIterations),
		done:  make(chan struct{}),
	}
	var tracer *obs.Tracer
	if s.cfg.Trace {
		tracer = obs.NewTracer()
	}
	go func() {
		defer close(r.done)
		defer close(r.stats)
		if s.cfg.Ranks > 0 {
			r.res, r.err = s.runDistributed(ctx, r, tracer)
		} else {
			r.res, r.err = s.runSequential(ctx, r, tracer)
		}
		if tracer != nil && r.res != nil {
			r.res.Spans = tracer.Trace()
		}
	}()
	return r, nil
}

// progress is the per-iteration hook both solvers run under the facade
// contract: record the row in trace, stream it, and observe the context.
// The first row of a distributed run announces its plan (empty for a
// sequential one). The stream's buffer covers the full iteration budget,
// so the send never blocks.
func (r *Run) progress(ctx context.Context, trace *[]IterStats, plan string) func(IterStats) error {
	return func(st IterStats) error {
		if len(*trace) == 0 {
			st.Plan = plan
		}
		*trace = append(*trace, st)
		select {
		case r.stats <- st:
		default: // impossible while maxIter bounds the iterations; never block the solver
		}
		return ctx.Err()
	}
}

// runSequential drives the negf solver under the facade contract.
func (s *Simulation) runSequential(ctx context.Context, r *Run, tracer *obs.Tracer) (*Result, error) {
	trace := []IterStats{}
	solver := negf.New(s.Device, s.negfOptions(r.progress(ctx, &trace, ""), tracer))
	if w := s.warm; w != nil {
		// Seed the loop with the warm Σ≷/Π≷ state (copied: the shared
		// cache artifact may seed many concurrent runs).
		copy(solver.SigL.Data, w.SigL.Data)
		copy(solver.SigG.Data, w.SigG.Data)
		copy(solver.PiL.Data, w.PiL.Data)
		copy(solver.PiG.Data, w.PiG.Data)
	}
	finalState := func() *SigmaState {
		return (&SigmaState{
			SigL: solver.SigL, SigG: solver.SigG,
			PiL: solver.PiL, PiG: solver.PiG,
		}).Clone()
	}
	obs, err := solver.Run()
	switch {
	case err == nil, errors.Is(err, negf.ErrNotConverged):
		// Converged or capped: both carry valid observables.
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		res := s.summarize(obs, trace, err == nil, nil, nil)
		res.FinalState = finalState()
		return res, ctx.Err()
	default:
		return nil, err
	}
	res := s.summarize(obs, trace, err == nil, nil, nil)
	res.FinalState = finalState()
	return res, nil
}

// runDistributed drives the dist solver under the facade contract.
func (s *Simulation) runDistributed(ctx context.Context, r *Run, tracer *obs.Tracer) (*Result, error) {
	trace := []IterStats{}
	res, err := dist.Run(s.Device, s.distOptions(r.progress(ctx, &trace, s.PlanString()), tracer))
	switch {
	case err == nil, errors.Is(err, negf.ErrNotConverged):
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		return s.summarize(&res.Obs, trace, false, &res.Comm, res.Load), ctx.Err()
	default:
		return nil, err
	}
	return s.summarize(&res.Obs, trace, res.Converged, &res.Comm, res.Load), nil
}

// summarize folds the observables and trace into the Result.
func (s *Simulation) summarize(obs *negf.Observables, trace []IterStats, converged bool,
	cs *comm.Stats, load []dist.RankLoad) *Result {

	res := &Result{
		Converged:   converged,
		Iterations:  len(trace),
		Trace:       trace,
		Observables: obs,
		Comm:        cs,
		Load:        load,
	}
	if obs == nil {
		return res
	}
	res.Current = obs.CurrentL
	for i, t := range obs.SlabTemperature(s.Device) {
		if t > res.MaxTemperature {
			res.MaxTemperature, res.HotSpot = t, i
		}
	}
	if obs.ElectronEnergyLoss != 0 {
		res.EnergyBalance = obs.PhononEnergyGain / obs.ElectronEnergyLoss
	}
	return res
}
