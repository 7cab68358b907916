package dist

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/negf"
)

// mixedWithinTol is the golden regression of the mixed-precision
// distributed path: every per-iteration left-contact current of a
// PrecisionMixed run must match the one-rank FP64 run within the
// documented MixedCurrentTol. This pins the combined quantization error
// of the binary16 wire format and the mixed tile kernel through the
// self-consistent feedback loop.
func mixedWithinTol(worlds ...int) func(*testing.T, sched) {
	return func(t *testing.T, s sched) {
		const iters = 5
		ref := oneRankTrace(t, iters)
		for _, ranks := range worlds {
			opts := s.forced(ranks, iters)
			opts.Precision = PrecisionMixed
			for i, st := range mustRun(t, fmt.Sprint("P=", ranks), opts).IterTrace {
				if e := relErr(st.Current, ref[i].Current); e > MixedCurrentTol {
					t.Errorf("P=%d iter %d: mixed current %.12g vs one-rank fp64 %.12g (rel %.3g > %g)",
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
		opts := Options{Ranks: 4}
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
	opts := Options{Ranks: 4}
	opts, err := opts.Validate()
	if err != nil {
		t.Fatal(err)
	}
	fpModel := model.DaCeCommVolume(dev.P, opts.Ta, opts.TE)
	mxModel := mixedCommVolume(dev.P, opts.Ta, opts.TE)
	if mxModel >= fpModel/1.8 {
		t.Errorf("model predicts only %.2fx reduction", fpModel/mxModel)
	}
	perIter := float64(sum) / float64(len(mx.IterTrace))
	if perIter > mxModel {
		t.Errorf("measured mixed volume %.0f exceeds modelled %.0f", perIter, mxModel)
	}
}

// mixedCommVolume is the predicted per-iteration SSE wire volume of the
// Ta×TE decomposition when the exchanges ship the half-width
// split-complex binary16 format (internal/half's wire encoding) instead
// of complex128. Each (point, atom) block unit of model.DaCeCommVolume
// becomes one wire segment of 1 + ⌈n/4⌉ words (n elements packed four
// complex values per word, plus the per-segment normalization header),
// assuming no segment takes the fp64 fallback — the prediction the
// measured mixed Alltoallv bytes are set against.
func mixedCommVolume(p device.Params, ta, te int) float64 {
	procs := float64(ta * te)
	atomShare := float64(p.Na)/float64(ta) + float64(p.NbT)
	energyShare := float64(p.NE)/float64(te) + 2*float64(p.Nomega)
	segG := 2 * p.Norb * p.Norb
	segD := 2 * (p.NbT + 1) * device.N3D * device.N3D
	// Block units per process: electron (point, atom) pairs for the
	// G≷/Σ≷ stage pair, phonon (point, atom) pairs for D≷/Π≷; each unit
	// moves one segment in each stage of its pair.
	uG := float64(p.Nkz) * energyShare * atomShare
	uD := float64(p.Nqz()) * float64(p.Nomega) * atomShare
	words := func(n int) float64 { return float64(1 + (n+3)/4) }
	g := 2 * uG * 16 * words(segG)
	d := 2 * uD * 16 * words(segD)
	return procs * (g + d)
}

func TestDaCeCommVolumeMixed(t *testing.T) {
	p := device.TestParams(24, 4, 2)
	p.NE = 16
	p.Nomega = 4
	fp := model.DaCeCommVolume(p, 2, 4)
	mx := mixedCommVolume(p, 2, 4)
	if mx <= 0 || fp <= 0 {
		t.Fatalf("volumes must be positive: fp64 %g, mixed %g", fp, mx)
	}
	// Norb=2 electron segments pack 8 words into 3 (8/3×), the phonon
	// segments better: the overall predicted reduction must exceed the
	// 1.8× acceptance factor and stay below the asymptotic 4×.
	ratio := fp / mx
	if ratio < 1.8 || ratio > 4 {
		t.Errorf("predicted mixed reduction %.3fx outside (1.8, 4)", ratio)
	}
	// The prediction composes per segment: halving Ta doubles nothing
	// structurally — volume stays monotone in the process count.
	if mixedCommVolume(p, 4, 4) <= mx {
		t.Error("mixed volume must grow with the process count")
	}
}

// TestMixedErrorProbe: with the probe on, every iteration reports a
// small nonzero Σ deviation, bounded well under the current tolerance —
// the same one on every row of the schedule table, deeper windows
// included, bit for bit the values ScheduleOverlap reported at commit
// 1f4b91f, when the probe was a blocking max-reduction of its own. The
// probe words now ride the observable reduction, so no row has a
// collective more to deadlock on.
func TestMixedErrorProbe(t *testing.T) {
	recorded := []uint64{0x3f4449098578ea10, 0x3f3e61a63c4a347e}
	forEach(t, anySchedule, func(t *testing.T, s sched) {
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
	deep := Options{Ranks: 2}
	deep.Schedule = SchedulePipeline
	deep.PipelineDepth = 2
	deep.Precision = PrecisionMixed
	deep.ErrorProbe = true
	deep.MaxIter, deep.Tol = 2, 1e-300
	if _, err := Run(testDevice(t), deep); err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Errorf("ErrorProbe in a depth-2 window must be accepted: %v", err)
	}
	dev := testDevice(t)

	// fp64 runs must not report a deviation (probe is mixed-only).
	opts := Options{Ranks: 2}
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
