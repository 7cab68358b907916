// Package plan is the execution-plan autotuner: it calibrates the
// repo's virtual-time cost model (internal/sdfg.Simulate — the model
// validated against the paper's Table 6 shape through cmd/paperbench)
// from a short probe run on the actual device, scores every candidate
// plan (schedule × worker pool × window depth) in virtual time, and
// returns the argmin. The qt facade surfaces it as RunConfig.AutoPlan;
// the resolved plan is recorded in the run's content-addressed
// configuration.
//
// Calibration contract: the probe runs two self-consistent iterations
// of the phases schedule (the depth-1 window graph on one worker, so no
// node's span is inflated by a sibling) on a single rank with tracing
// enabled. The first iteration's point solves decimate every boundary;
// the second iteration's lookups are cache hits, and negf records each
// lookup as a "bc" span inside the solve that ran it, so the first span
// of a point is the cold cost and the second is warm.
// Per-point costs keep the minimum observed occurrence (noise-robust:
// contention only inflates a span) while the per-iteration aggregates
// (tile, residual, reduce) are averaged across both iterations — so the
// calibration describes the steady state of a cached run, plus the
// one-time cold cost. Costs are per-node nanoseconds; the prediction step
// scales them by each candidate's shard sizes. A calibration is only as
// good as the probe host: it is measured wall time, not a hardware model.
package plan

import (
	"fmt"
	"time"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/negf"
	"repro/internal/obs"
)

// Calibration holds the measured per-node costs the candidate scoring
// feeds into the virtual-time models.
type Calibration struct {
	// Per electron point: cold Sancho-Rubio decimation, warm cache
	// lookup, and the RGF solve proper (steady state).
	BCColdNs, BCWarmNs, ElNs float64
	// Same three numbers for a phonon point.
	PhBCColdNs, PhBCWarmNs, PhNs float64
	// TileNs is one full-grid SSE tile application on one rank; Predict
	// scales it by the share of the grid a candidate's tile covers.
	TileNs float64
	// MiscNs is the per-iteration residual graph work on one rank —
	// accumulation, collision partials, mixing — everything that is
	// neither a point solve nor a collective.
	MiscNs float64
	// ReduceNs is the per-iteration observable reduction latency.
	ReduceNs float64
	// CopyNsPerByte converts exchange volume to time: the in-process
	// transport is a memcpy, so its bandwidth is the memory bandwidth.
	CopyNsPerByte float64
	// ProbeNs is the total wall time the calibration run took.
	ProbeNs int64
}

// Calibrate runs the probe on cold boundaries — no store under its
// cache — and reduces its trace to a Calibration.
func Calibrate(dev *device.Device) (Calibration, error) { return calibrate(dev, nil) }

// calibrate is Calibrate with the probe's boundaries shared through
// store: leads an earlier solve decimated read as hits (BCColdNs then
// measures a store hit, which is what the planned run will pay too).
func calibrate(dev *device.Device, store *bc.Store) (Calibration, error) {
	trc := obs.NewTracer()
	opts := dist.Options{Ranks: 1} // SchedulePhases: every node on one worker, back to back
	opts.Store = store
	opts.MaxIter = 2
	opts.Tol = 1e-300 // never converge: we want exactly two iterations
	opts.Tracer = trc
	t0 := time.Now()
	_, err := dist.Run(dev, opts)
	if err != nil && err != negf.ErrNotConverged {
		return Calibration{}, fmt.Errorf("plan: calibration probe: %w", err)
	}
	cal := reduceTrace(trc.Trace(), opts.MaxIter)
	cal.CopyNsPerByte = measureCopy()
	cal.ProbeNs = time.Since(t0).Nanoseconds()
	if cal.ElNs <= 0 || cal.TileNs <= 0 {
		return cal, fmt.Errorf("plan: probe trace incomplete: %+v", cal)
	}
	return cal, nil
}

// reduceTrace aggregates the probe spans. Point-solve spans carry their
// grid indices, so cold/warm splitting keys on (name, point): the first
// occurrence of each point is the cold iteration, later ones are warm.
// Per-point costs take the *minimum* observed occurrence, not the mean:
// preemption by a co-scheduled goroutine can only inflate a measured
// span, so the minimum is the robust contention-free estimate — the
// same policy as the bandwidth probe's best-of-3.
func reduceTrace(tr *obs.Trace, iters int) Calibration {
	cold := map[string]float64{}
	warm := map[string]float64{}
	seen := map[string]bool{}
	var tile, misc, reduce float64
	var bcrgf float64 // double-counted inside the solve-node task spans
	for _, sp := range tr.Spans {
		switch sp.Cat {
		case "bc", "rgf":
			key := fmt.Sprintf("%s/%d,%d", sp.Name, sp.I, sp.J)
			m := warm
			if !seen[key] {
				seen[key] = true
				m = cold
			}
			d := float64(sp.Dur)
			if best, ok := m[sp.Name]; !ok || d < best {
				m[sp.Name] = d
			}
			bcrgf += d
		case "sse":
			tile += float64(sp.Dur)
		case "reduce":
			reduce += float64(sp.Dur)
		case "task":
			// Executor node envelopes: the rgf/* nodes re-cover their bc
			// and rgf spans, so the residual (accum/collision/mix/...)
			// is the task total minus the inner categories, folded in
			// below — the one-time decimation is not part of it.
			misc += float64(sp.Dur)
		}
	}
	residual := (misc - bcrgf) / float64(iters)
	if residual < 0 {
		residual = 0
	}
	return Calibration{
		BCColdNs:   cold["bc/el"],
		BCWarmNs:   warm["bc/el"],
		ElNs:       warm["rgf/el"],
		PhBCColdNs: cold["bc/ph"],
		PhBCWarmNs: warm["bc/ph"],
		PhNs:       warm["rgf/ph"],
		TileNs:     tile / float64(iters),
		MiscNs:     residual,
		ReduceNs:   reduce / float64(iters),
	}
}

// measureCopy times a memory copy large enough to defeat the caches and
// returns ns/byte, the cost coefficient of the in-process exchange.
func measureCopy() float64 {
	const n = 4 << 20
	src := make([]byte, n)
	dst := make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	best := float64(0)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		copy(dst, src)
		d := float64(time.Since(t0).Nanoseconds()) / n
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}
