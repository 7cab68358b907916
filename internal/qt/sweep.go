package qt

import (
	"context"
	"fmt"
)

// Sweep fans one Spec across experiment grids — the driver behind I-V
// curves (Bias axis), strong-scaling studies (Ranks axis) and precision
// comparisons (Precisions axis). Empty axes keep the base value, so the
// zero Sweep with just a Spec runs a single point. Points execute
// sequentially in deterministic axis order (bias, then ranks, then
// precision); each distributed point already parallelizes internally.
type Sweep struct {
	Spec Spec
	// Options apply to every point, before the axis options.
	Options []Option

	// Bias values (eV) for WithBias; empty keeps the Spec's bias.
	Bias []float64
	// Ranks values for WithRanks; 0 selects the sequential solver,
	// overriding any WithRanks in Options; empty keeps the base
	// configuration.
	Ranks []int
	// Precisions values for WithPrecision; empty keeps the base.
	Precisions []Precision
}

// SweepPoint is one grid point's outcome.
type SweepPoint struct {
	Bias      float64   `json:"bias"`
	Ranks     int       `json:"ranks"` // 0 = sequential solver
	Precision Precision `json:"precision"`
	Result    *Result   `json:"result"`
}

// Run executes the grid. The context cancels between iterations of the
// running point and skips the remaining points; the completed points
// are returned alongside the context's error. A hard solver error stops
// the sweep; non-convergence does not (see Result.Converged).
func (sw Sweep) Run(ctx context.Context) ([]SweepPoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	base := sw.Spec.withDefaults()

	biases := sw.Bias
	if len(biases) == 0 {
		biases = []float64{base.Bias}
	}
	ranks := sw.Ranks
	if len(ranks) == 0 {
		ranks = []int{-1} // sentinel: keep the base options' solver choice
	}
	precs := sw.Precisions
	if len(precs) == 0 {
		precs = []Precision{-1}
	}

	var points []SweepPoint
	for _, v := range biases {
		for _, p := range ranks {
			for _, pr := range precs {
				if err := ctx.Err(); err != nil {
					return points, err
				}
				opts := append([]Option{}, sw.Options...)
				opts = append(opts, WithBias(v))
				switch {
				case p == 0:
					opts = append(opts, withSequential())
				case p > 0:
					opts = append(opts, WithRanks(p))
				}
				if pr >= 0 {
					opts = append(opts, WithPrecision(pr))
				}
				sim, err := New(base, opts...)
				if err != nil {
					return points, fmt.Errorf("sweep point (bias=%g, P=%d): %w", v, max(p, 0), err)
				}
				run, err := sim.Start(ctx)
				if err != nil {
					return points, err
				}
				res, err := run.Wait()
				// Record the effective axes the point actually ran with,
				// not the requested ones — they differ when a sentinel
				// kept the base configuration.
				points = append(points, SweepPoint{
					Bias: v, Ranks: sim.Ranks(), Precision: sim.cfg.precision(), Result: res,
				})
				if err != nil {
					return points, err
				}
			}
		}
	}
	return points, nil
}

// withSequential is the Ranks-axis value 0: it overrides any base
// WithRanks back to the sequential solver, dropping the
// distributed-only knobs (schedule, tiles, workers, error probe) the
// base options may carry — a sequential grid point must validate even
// when the base configuration is distributed.
func withSequential() Option {
	return func(s *Simulation) error {
		s.cfg.Ranks = 0
		s.cfg.Schedule = ""
		s.cfg.TileA, s.cfg.TileE = 0, 0
		s.cfg.Workers = 0
		s.cfg.ErrorProbe = false
		return nil
	}
}
