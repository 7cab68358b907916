package dist

import (
	"errors"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/negf"
)

// TestMixedGoldenCrossSchedule is the golden regression of the
// mixed-precision distributed path: for P ∈ {1, 2, 4, 8} and both
// schedules, every per-iteration left-contact current of a
// PrecisionMixed run must match the sequential FP64 solver within the
// documented MixedCurrentTol. This pins the combined quantization error
// of the binary16 wire format and the mixed tile kernel through the
// self-consistent feedback loop.
func TestMixedGoldenCrossSchedule(t *testing.T) {
	const iters = 5
	dev := testDevice(t)
	ref := sequentialTrace(t, dev, iters)

	for _, sched := range []Schedule{SchedulePhases, ScheduleOverlap} {
		for _, ranks := range []int{1, 2, 4, 8} {
			opts := DefaultOptions(ranks)
			opts.MaxIter = iters
			opts.Tol = 1e-300
			opts.Schedule = sched
			opts.Precision = PrecisionMixed
			res, err := Run(dev, opts)
			if !errors.Is(err, negf.ErrNotConverged) {
				t.Fatalf("%v P=%d: expected ErrNotConverged, got %v", sched, ranks, err)
			}
			if len(res.IterTrace) != iters {
				t.Fatalf("%v P=%d: trace has %d iterations, want %d",
					sched, ranks, len(res.IterTrace), iters)
			}
			for i, st := range res.IterTrace {
				if e := relErr(st.Current, ref[i].Current); e > MixedCurrentTol {
					t.Errorf("%v P=%d iter %d: mixed current %.12g vs sequential fp64 %.12g (rel %.3g > %g)",
						sched, ranks, i, st.Current, ref[i].Current, e, MixedCurrentTol)
				}
			}
		}
	}
}

// TestMixedSchedulesAgree: the two schedules execute the identical mixed
// arithmetic in the identical association order, so their per-iteration
// currents must agree to reduction-ordering noise — quantization does
// not excuse schedule-dependent results.
func TestMixedSchedulesAgree(t *testing.T) {
	const iters = 4
	dev := testDevice(t)

	run := func(sched Schedule) *Result {
		opts := DefaultOptions(4)
		opts.MaxIter = iters
		opts.Tol = 1e-300
		opts.Schedule = sched
		opts.Precision = PrecisionMixed
		res, err := Run(dev, opts)
		if !errors.Is(err, negf.ErrNotConverged) {
			t.Fatalf("%v: expected ErrNotConverged, got %v", sched, err)
		}
		return res
	}
	ph, ov := run(SchedulePhases), run(ScheduleOverlap)
	for i := range ph.IterTrace {
		if e := relErr(ov.IterTrace[i].Current, ph.IterTrace[i].Current); e > 1e-12 {
			t.Errorf("iter %d: overlap %.17g vs phases %.17g (rel %.3g)",
				i, ov.IterTrace[i].Current, ph.IterTrace[i].Current, e)
		}
	}
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
// the same one under every schedule that can run it, bit for bit the
// values ScheduleOverlap reported at commit 1f4b91f, before the probe
// became a node of the window graph. The task graph additionally runs
// with a single-worker pool: the probe's blocking max-reduction must stay
// deadlock-free when the rank's only worker can block in it (the probe
// node depends on both Σ/Π posts, like the exchange waits). A window
// deeper than 1 cannot host the probe and is rejected.
func TestMixedErrorProbe(t *testing.T) {
	recorded := []uint64{0x3f4449098578ea10, 0x3f3e61a63c4a347e}
	for _, tc := range []struct {
		sched          Schedule
		workers, depth int
	}{
		{SchedulePhases, 0, 0},
		{ScheduleOverlap, 2, 0},
		{ScheduleOverlap, 1, 0},
		{SchedulePipeline, 2, 1},
		{SchedulePipeline, 1, 1},
	} {
		dev := testDevice(t)
		opts := DefaultOptions(2)
		opts.MaxIter = 2
		opts.Tol = 1e-300
		opts.Schedule = tc.sched
		opts.Workers = tc.workers
		opts.PipelineDepth = tc.depth
		opts.Precision = PrecisionMixed
		opts.ErrorProbe = true
		res, err := Run(dev, opts)
		if err != nil && !errors.Is(err, negf.ErrNotConverged) {
			t.Fatal(err)
		}
		if len(res.IterTrace) != len(recorded) {
			t.Fatalf("%v workers=%d: %d iterations, want %d", tc.sched, tc.workers, len(res.IterTrace), len(recorded))
		}
		for i, it := range res.IterTrace {
			if it.SigmaErr <= 0 || it.SigmaErr > 0.05 {
				t.Errorf("%v workers=%d iter %d: SigmaErr %g outside (0, 0.05]",
					tc.sched, tc.workers, i, it.SigmaErr)
			}
			if got := math.Float64bits(it.SigmaErr); got != recorded[i] {
				t.Errorf("%v workers=%d iter %d: SigmaErr %#x, recorded %#x",
					tc.sched, tc.workers, i, got, recorded[i])
			}
		}
	}
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
