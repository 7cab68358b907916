package dist

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/negf"
)

// mixedWithinTol is the golden regression of the mixed-precision
// distributed path: every per-iteration left-contact current of a
// PrecisionMixed run must match the sequential FP64 solver within the
// documented MixedCurrentTol. This pins the combined quantization error
// of the binary16 wire format and the mixed tile kernel through the
// self-consistent feedback loop.
func mixedWithinTol(worlds ...int) func(*testing.T, sched) {
	return func(t *testing.T, s sched) {
		const iters = 5
		ref := sequentialTrace(t, iters)
		for _, ranks := range worlds {
			opts := s.forced(ranks, iters)
			opts.Precision = PrecisionMixed
			for i, st := range mustRun(t, fmt.Sprint("P=", ranks), opts).IterTrace {
				if e := relErr(st.Current, ref[i].Current); e > MixedCurrentTol {
					t.Errorf("P=%d iter %d: mixed current %.12g vs sequential fp64 %.12g (rel %.3g > %g)",
						ranks, i, st.Current, ref[i].Current, e, MixedCurrentTol)
				}
			}
		}
	}
}

func TestMixedGoldenCrossSchedule(t *testing.T) {
	forEach(t, func(s sched) bool { return !isPipeline(s) }, mixedWithinTol(1, 2, 4, 8))
}

// Speculation across a window and quantization compose; the world-size
// sweep of the deeper windows is TestPipelineBitwiseMatchesPhases'.
func TestPipelineMixedPrecision(t *testing.T) { forEach(t, isPipeline, mixedWithinTol(2)) }

// TestMixedSchedulesAgree: the schedules execute the identical mixed
// arithmetic in the identical association order — quantization does not
// excuse schedule-dependent results.
func TestMixedSchedulesAgree(t *testing.T) {
	forEach(t, isOverlap, bitwiseMatchesPhases(PrecisionMixed))
}

// TestMixedHalvesMeasuredVolume: at an identical decomposition the mixed
// wire format must cut the measured Alltoallv traffic by at least the
// acceptance factor 1.8× (the model predicts 8/3× for Norb=2 electron
// blocks), and the measured wire volume must match the analytic
// prediction the same way the fp64 path matches its own model.
func TestMixedHalvesMeasuredVolume(t *testing.T) {
	dev := testDevice(t)
	run := func(prec Precision) *Result {
		opts := DefaultOptions(4)
		opts.MaxIter = 2
		opts.Tol = 1e-300
		opts.Precision = prec
		res, err := Run(dev, opts)
		if err != nil && !errors.Is(err, negf.ErrNotConverged) {
			t.Fatal(err)
		}
		return res
	}
	fp, mx := run(PrecisionFP64), run(PrecisionMixed)

	fpB := fp.Comm.CollectiveBytes["Alltoallv"]
	mxB := mx.Comm.CollectiveBytes["Alltoallv"]
	if fpB == 0 || mxB == 0 {
		t.Fatalf("missing Alltoallv traffic: fp64 %d, mixed %d", fpB, mxB)
	}
	ratio := float64(fpB) / float64(mxB)
	if ratio < 1.8 {
		t.Errorf("mixed wire reduction %.2fx, want >= 1.8x (fp64 %d B, mixed %d B)",
			ratio, fpB, mxB)
	}

	// The per-iteration SSEBytes telemetry must agree with the comm
	// layer's counters (both count encoded off-rank payloads).
	var sum int64
	for _, it := range mx.IterTrace {
		sum += it.SSEBytes
	}
	if sum != mxB {
		t.Errorf("plan-counted SSE bytes %d != comm-counted Alltoallv bytes %d", sum, mxB)
	}

	// Model consistency: measured/modelled must not exceed 1 (the model
	// charges the full halo including the locally owned share) and the
	// modelled mixed/fp64 ratio must show the same reduction.
	opts := DefaultOptions(4)
	opts, err := opts.Validate()
	if err != nil {
		t.Fatal(err)
	}
	fpModel := model.DaCeCommVolume(dev.P, opts.Ta, opts.TE)
	mxModel := model.DaCeCommVolumeMixed(dev.P, opts.Ta, opts.TE)
	if mxModel >= fpModel/1.8 {
		t.Errorf("model predicts only %.2fx reduction", fpModel/mxModel)
	}
	perIter := float64(sum) / float64(len(mx.IterTrace))
	if perIter > mxModel {
		t.Errorf("measured mixed volume %.0f exceeds modelled %.0f", perIter, mxModel)
	}
}

// TestMixedErrorProbe: with the probe on, every iteration reports a
// small nonzero Σ deviation, bounded well under the current tolerance —
// the same one on every depth-1 row of the schedule table, bit for bit
// the values ScheduleOverlap reported at commit 1f4b91f, before the probe
// became a node of the window graph. The one-worker rows matter most: the
// probe's blocking max-reduction must stay deadlock-free when the rank's
// only worker can block in it (the probe node depends on both Σ/Π posts,
// like the exchange waits). A window deeper than 1 cannot host the probe
// and is rejected.
func TestMixedErrorProbe(t *testing.T) {
	recorded := []uint64{0x3f4449098578ea10, 0x3f3e61a63c4a347e}
	forEach(t, func(s sched) bool { return s.depth <= 1 }, func(t *testing.T, s sched) {
		opts := s.forced(2, len(recorded))
		opts.Precision = PrecisionMixed
		opts.ErrorProbe = true
		for i, it := range mustRun(t, "probe", opts).IterTrace {
			if it.SigmaErr <= 0 || it.SigmaErr > 0.05 {
				t.Errorf("iter %d: SigmaErr %g outside (0, 0.05]", i, it.SigmaErr)
			}
			if got := math.Float64bits(it.SigmaErr); got != recorded[i] {
				t.Errorf("iter %d: SigmaErr %#x, recorded %#x", i, got, recorded[i])
			}
		}
	})
	deep := DefaultOptions(2)
	deep.Schedule = SchedulePipeline
	deep.PipelineDepth = 2
	deep.Precision = PrecisionMixed
	deep.ErrorProbe = true
	if _, err := Run(testDevice(t), deep); err == nil {
		t.Error("ErrorProbe in a depth-2 window must be rejected")
	}
	dev := testDevice(t)

	// fp64 runs must not report a deviation (probe is mixed-only).
	opts := DefaultOptions(2)
	opts.MaxIter = 1
	opts.Tol = 1e-300
	opts.ErrorProbe = true
	res, err := Run(dev, opts)
	if err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatal(err)
	}
	if res.IterTrace[0].SigmaErr != 0 {
		t.Errorf("fp64 run reported SigmaErr %g", res.IterTrace[0].SigmaErr)
	}
}
