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

// IterStats is the unified per-iteration telemetry schema of every run,
// with or without ranks — the row type every report encoder and
// streaming consumer keys on. It is the loop's own row (negf.IterStats),
// not a copy: what a run streams is what its solver recorded, plus the
// Plan announcement on the first row of a run with ranks.
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
	// per-rank work distribution; both are nil for runs without ranks.
	Comm *comm.Stats     `json:"comm,omitempty"`
	Load []dist.RankLoad `json:"load,omitempty"`
	// FinalState is the Σ≷/Π≷ state after the last reported iteration of
	// a run without ranks that converged or reached max_iterations — the
	// artifact WithWarmStart seeds a near-identical run from. Nil for runs
	// with ranks and for cancelled runs, whose discarded extra iteration
	// has already mixed into the state; never serialized (it is solver
	// state, not a result row).
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
// an error here — it is reported through Result.Converged. A
// cancellation lands one iteration late on every run: the stop request
// rides the next iteration's observable reduction, and that iteration
// is computed, then discarded.
func (r *Run) Wait() (*Result, error) {
	<-r.done
	return r.res, r.err
}

// Start launches the solve — dist.Run, on the one-rank world when the
// configuration has no ranks — and returns its handle. The context is
// observed after every self-consistent iteration — on cancellation every
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
		r.res, r.err = s.run(ctx, r, tracer)
		if tracer != nil && r.res != nil {
			r.res.Spans = tracer.Trace()
		}
	}()
	return r, nil
}

// progress is the per-iteration hook the solver runs under the facade
// contract: stream the row and observe the context. The first row of a
// run with ranks announces its plan (empty without), as in the result's
// trace. The stream's buffer covers the full iteration budget, so the
// send never blocks.
func (r *Run) progress(ctx context.Context, plan string) func(IterStats) error {
	return func(st IterStats) error {
		if st.Iter == 0 {
			st.Plan = plan
		}
		select {
		case r.stats <- st:
		default: // impossible while maxIter bounds the iterations; never block the solver
		}
		return ctx.Err()
	}
}

// run drives the dist solver under the facade contract and folds its
// outcome into the Result: the trace is the solver's own record of the
// rows the hook streamed, the plan stamped on row 0. A configuration
// without ranks reports no world, and hands its final state over.
func (s *Simulation) run(ctx context.Context, r *Run, tracer *obs.Tracer) (*Result, error) {
	plan := s.PlanString()
	d, err := dist.Run(s.Device, s.distOptions(r.progress(ctx, plan), tracer))
	cancelled := ctx.Err() != nil && errors.Is(err, ctx.Err())
	if err != nil && !cancelled && !errors.Is(err, negf.ErrNotConverged) {
		return nil, err
	}
	trace := d.IterTrace
	if len(trace) > 0 {
		trace[0].Plan = plan
	}
	obs := &d.Obs
	res := &Result{
		Converged:   d.Converged && !cancelled,
		Iterations:  len(trace),
		Trace:       trace,
		Observables: obs,
		Current:     obs.CurrentL,
	}
	if s.cfg.Ranks > 0 {
		res.Comm, res.Load = &d.Comm, d.Load
	} else {
		res.FinalState = d.Final
	}
	for i, t := range obs.SlabTemperature(s.Device) {
		if t > res.MaxTemperature {
			res.MaxTemperature, res.HotSpot = t, i
		}
	}
	if obs.ElectronEnergyLoss != 0 {
		res.EnergyBalance = obs.PhononEnergyGain / obs.ElectronEnergyLoss
	}
	if cancelled {
		return res, ctx.Err()
	}
	return res, nil
}
