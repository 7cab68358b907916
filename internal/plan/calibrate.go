package plan

import (
	"fmt"
	"sync"
	"time"

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

// Calibrate runs the probe on cold boundaries and reduces its trace to
// a Calibration.
func Calibrate(dev *device.Device) (Calibration, error) {
	trc := obs.NewTracer()
	opts := dist.Options{Ranks: 1} // SchedulePhases: every node on one worker, back to back
	opts.MaxIter = 2
	opts.Tol = 1e-300 // never converge: we want exactly two iterations
	opts.Tracer = trc
	t0 := time.Now()
	_, err := dist.Run(dev, opts)
	if err != nil && err != negf.ErrNotConverged {
		return Calibration{}, fmt.Errorf("plan: calibration probe: %w", err)
	}
	cal := reduceTrace(trc.Trace(), opts.MaxIter)
	cal.CopyNsPerByte = copyNsPerByte()
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

// copyNsPerByte is the host's memory copy cost, measured by the first
// probe of the process and reused by every later one. Like the best-of-3
// inside measureCopy it is the contention-free host constant, so
// measuring it again would only add the 8 MB of copy buffers to each
// probe.
var copyNsPerByte = sync.OnceValue(measureCopy)

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
