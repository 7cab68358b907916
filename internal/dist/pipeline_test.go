package dist

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bc"
	"repro/internal/negf"
)

// TestPipelineMatchesSequential is the acceptance criterion of the
// pipelined schedule: speculation across the iteration window must not
// change the arithmetic, so the per-iteration currents match the
// sequential solver within 1e-12 for every world size — the same bar as
// phases and overlap.
func TestPipelineMatchesSequential(t *testing.T) {
	const iters = 5
	dev := testDevice(t)
	ref := sequentialTrace(t, dev, iters)

	for _, ranks := range []int{1, 2, 4, 8} {
		opts := DefaultOptions(ranks)
		opts.MaxIter = iters
		opts.Tol = 1e-300
		opts.Schedule = SchedulePipeline
		opts.PipelineDepth = 2
		opts.Workers = 3
		res, err := Run(dev, opts)
		if !errors.Is(err, negf.ErrNotConverged) {
			t.Fatalf("P=%d: expected ErrNotConverged, got %v", ranks, err)
		}
		if len(res.IterTrace) != iters {
			t.Fatalf("P=%d: trace has %d iterations, want %d", ranks, len(res.IterTrace), iters)
		}
		for i, st := range res.IterTrace {
			if st.Iter != i {
				t.Errorf("P=%d: row %d carries iteration %d", ranks, i, st.Iter)
			}
			if e := relErr(st.Current, ref[i].Current); e > 1e-12 {
				t.Errorf("P=%d iter %d: current %.17g vs %.17g (rel %.3g)",
					ranks, i, st.Current, ref[i].Current, e)
			}
			if e := relErr(st.ElEnergyLoss, ref[i].ElEnergyLoss); e > 1e-12 {
				t.Errorf("P=%d iter %d: elLoss rel %.3g", ranks, i, e)
			}
		}
	}
}

// TestPipelineBitwiseMatchesPhases pins the strongest equivalence: the
// window graph executes the identical per-iteration arithmetic in the
// identical association, so its currents match the bulk-synchronous
// schedule bitwise — over the whole matrix the two engines are documented
// for: ScheduleOverlap and SchedulePipeline at depths 1, 2, 3 and 7
// (depth > MaxIter exercises window clamping), P ∈ {1, 2, 4, 8}, fp64 and
// mixed precision.
func TestPipelineBitwiseMatchesPhases(t *testing.T) {
	const iters = 4
	dev := testDevice(t)
	for _, prec := range []Precision{PrecisionFP64, PrecisionMixed} {
		for _, ranks := range []int{1, 2, 4, 8} {
			phases := DefaultOptions(ranks)
			phases.MaxIter = iters
			phases.Tol = 1e-300
			phases.Precision = prec
			pres, err := Run(dev, phases)
			if !errors.Is(err, negf.ErrNotConverged) {
				t.Fatalf("precision %d P=%d phases: %v", prec, ranks, err)
			}

			for _, depth := range []int{0, 1, 2, 3, 7} { // 0: spelled ScheduleOverlap
				pipe := phases
				pipe.Schedule = SchedulePipeline
				pipe.PipelineDepth = depth
				if depth == 0 {
					pipe.Schedule = ScheduleOverlap
				}
				pipe.Workers = 4
				tag := fmt.Sprintf("precision %d P=%d %v depth %d", prec, ranks, pipe.Schedule, depth)
				res, err := Run(dev, pipe)
				if !errors.Is(err, negf.ErrNotConverged) {
					t.Fatalf("%s: %v", tag, err)
				}
				if len(res.IterTrace) != len(pres.IterTrace) {
					t.Fatalf("%s: trace lengths differ: %d vs %d", tag, len(res.IterTrace), len(pres.IterTrace))
				}
				for i := range res.IterTrace {
					o, p := res.IterTrace[i], pres.IterTrace[i]
					if o.Current != p.Current || o.Residual != p.Residual {
						t.Errorf("%s iter %d: current %.17g (residual %g) vs %.17g (%g)", tag, i, o.Current, o.Residual, p.Current, p.Residual)
					}
					if o.SSE != p.SSE {
						t.Errorf("%s iter %d: SSE stats differ: %+v vs %+v", tag, i, o.SSE, p.SSE)
					}
					if o.SSEBytes != p.SSEBytes {
						t.Errorf("%s iter %d: SSE bytes %d vs %d", tag, i, o.SSEBytes, p.SSEBytes)
					}
					// The task graph runs no cancellation-agreement
					// collective, so its reduce traffic is the bare
					// observable reduction.
					if o.ReduceBytes != p.ReduceBytes {
						t.Errorf("%s iter %d: reduce bytes %d vs %d", tag, i, o.ReduceBytes, p.ReduceBytes)
					}
				}
				if res.Obs.CurrentL != pres.Obs.CurrentL {
					t.Errorf("%s: final current %.17g vs %.17g", tag, res.Obs.CurrentL, pres.Obs.CurrentL)
				}
				for a := range res.Obs.AtomTemperature {
					if d := math.Abs(res.Obs.AtomTemperature[a] - pres.Obs.AtomTemperature[a]); d > 1e-9 {
						t.Errorf("%s: temperature[%d] differs by %g K", tag, a, d)
					}
				}
			}
		}
	}
}

// TestPipelineSingleWorker runs the full equivalence with Workers=1 — the
// pool size where any misordered post/wait in the window graph would
// deadlock instead of merely slowing down.
func TestPipelineSingleWorker(t *testing.T) {
	const iters = 4
	dev := testDevice(t)
	ref := sequentialTrace(t, dev, iters)
	opts := DefaultOptions(2)
	opts.Schedule = SchedulePipeline
	opts.PipelineDepth = 3
	opts.Workers = 1
	opts.MaxIter = iters
	opts.Tol = 1e-300
	res, err := Run(dev, opts)
	if !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("expected ErrNotConverged, got %v", err)
	}
	for i, st := range res.IterTrace {
		if e := relErr(st.Current, ref[i].Current); e > 1e-12 {
			t.Errorf("iter %d: current %.17g vs %.17g (rel %.3g)", i, st.Current, ref[i].Current, e)
		}
	}
}

// TestPipelineConverged lets the run terminate on its own tolerance: the
// fence must discard the speculated iterations past the converged one,
// keep the temperature accumulators at the converged iteration, and
// report the same converged state as the bulk-synchronous schedule. It
// also covers NoCache mode (no BC nodes in the window graph).
func TestPipelineConverged(t *testing.T) {
	dev := testDevice(t)
	phases := DefaultOptions(2)
	pres, err := Run(dev, phases)
	if err != nil {
		t.Fatalf("phases: %v", err)
	}
	if !pres.Converged {
		t.Fatal("phases run did not converge")
	}

	opts := DefaultOptions(2)
	opts.Schedule = SchedulePipeline
	opts.PipelineDepth = 3
	res, err := Run(dev, opts)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if !res.Converged {
		t.Fatal("pipelined run did not converge")
	}
	if len(res.IterTrace) != len(pres.IterTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(res.IterTrace), len(pres.IterTrace))
	}
	if res.Obs.CurrentL != pres.Obs.CurrentL {
		t.Errorf("final current %.17g vs %.17g", res.Obs.CurrentL, pres.Obs.CurrentL)
	}
	// The discarded speculation must not leak into the temperature map:
	// accum/ph of the iteration past convergence is fenced out.
	for a := range res.Obs.AtomTemperature {
		if d := math.Abs(res.Obs.AtomTemperature[a] - pres.Obs.AtomTemperature[a]); d > 1e-9 {
			t.Errorf("temperature[%d] differs by %g K", a, d)
		}
	}

	opts.CacheMode = bc.NoCache
	opts.MaxIter = 2
	opts.Tol = 1e-300
	if _, err := Run(dev, opts); err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("NoCache pipeline: %v", err)
	}
}

// TestPipelineCommAccounting checks the barrier-free claim and the
// pack-time byte accounting: a full-budget run executes exactly four
// Alltoallv and one Allreduce per iteration, no barriers and no
// agreement collectives, and the per-iteration byte counters sum to what
// the comm layer measures.
func TestPipelineCommAccounting(t *testing.T) {
	const iters = 4
	dev := testDevice(t)
	opts := DefaultOptions(4)
	opts.Schedule = SchedulePipeline
	opts.PipelineDepth = 2
	opts.MaxIter = iters
	opts.Tol = 1e-300
	// A Progress hook on the bulk-synchronous schedule costs an agreement
	// Allreduce per iteration; the task graph folds cancellation into the
	// observable reduction, so the counts below must not change.
	opts.Progress = func(IterStats) error { return nil }
	res, err := Run(dev, opts)
	if !errors.Is(err, negf.ErrNotConverged) {
		t.Fatal(err)
	}
	if got := res.Comm.Collectives["Alltoallv"]; got != 4*iters {
		t.Errorf("Alltoallv count = %d, want %d", got, 4*iters)
	}
	if got := res.Comm.Collectives["Allreduce"]; got != iters {
		t.Errorf("Allreduce count = %d, want %d", got, iters)
	}
	if got := res.Comm.Collectives["Barrier"]; got != 0 {
		t.Errorf("pipelined schedule must be barrier-free, saw %d barriers", got)
	}
	var sse, red int64
	for _, it := range res.IterTrace {
		if it.SSEBytes <= 0 || it.ReduceBytes <= 0 {
			t.Errorf("iter %d: empty traffic: %+v", it.Iter, it)
		}
		if it.ComputeNs <= 0 {
			t.Errorf("iter %d: no compute time recorded", it.Iter)
		}
		sse += it.SSEBytes
		red += it.ReduceBytes
	}
	if got := res.Comm.CollectiveBytes["Alltoallv"]; got != sse {
		t.Errorf("pack-time SSE bytes %d != comm-layer %d", sse, got)
	}
	if got := res.Comm.CollectiveBytes["Allreduce"]; got != red {
		t.Errorf("analytic reduce bytes %d != comm-layer %d", red, got)
	}
}

// TestPipelineRankErrorAgreement breaks the boundary decimation and
// checks that failure agreement still rides the reduction under
// speculation: every rank posts its collectives, the window drains, and
// the run returns the real error instead of deadlocking — including the
// Workers=1 pool, the tightest case for the post-before-wait discipline.
func TestPipelineRankErrorAgreement(t *testing.T) {
	for _, workers := range []int{1, 3} {
		dev := testDevice(t)
		dev.P.Eta = 0 // Sancho-Rubio cannot converge without broadening
		opts := DefaultOptions(4)
		opts.Schedule = SchedulePipeline
		opts.PipelineDepth = 2
		opts.Workers = workers
		opts.MaxIter = 4
		done := make(chan error, 1)
		go func() {
			_, err := Run(dev, opts)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !errors.Is(err, bc.ErrNoConvergence) {
				t.Fatalf("workers=%d: expected the boundary error, got %v", workers, err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("workers=%d: pipelined run deadlocked on a rank error", workers)
		}
	}
}

// TestPipelineStopRequest covers the ride-along cancellation: a Progress
// hook error on rank 0 is folded into the next reduction's control word,
// all ranks discard the speculated iteration symmetrically, and Run
// returns the hook's error with the trace truncated at the iteration the
// hook saw — whether the stop lands mid-window (discard within the same
// graph) or at a window boundary (the next window's first iteration is
// the one discarded).
func TestPipelineStopRequest(t *testing.T) {
	for _, depth := range []int{2, 3} {
		dev := testDevice(t)
		stop := errors.New("enough")
		opts := DefaultOptions(4)
		opts.Schedule = SchedulePipeline
		opts.PipelineDepth = depth
		opts.MaxIter = 8
		opts.Tol = 1e-300
		opts.Progress = func(st IterStats) error {
			if st.Iter >= 1 {
				return stop
			}
			return nil
		}
		done := make(chan struct{})
		var res *Result
		var err error
		go func() {
			res, err = Run(dev, opts)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("depth %d: stop request deadlocked", depth)
		}
		if !errors.Is(err, stop) {
			t.Fatalf("depth %d: expected the hook error, got %v", depth, err)
		}
		if len(res.IterTrace) != 2 {
			t.Errorf("depth %d: trace has %d rows, want 2 (stop after iteration 1)", depth, len(res.IterTrace))
		}
	}
}

// TestPipelineMixedPrecision runs the binary16 SSE path through the
// pipelined window: speculation and quantization compose, and the
// per-iteration current stays within the documented mixed tolerance.
func TestPipelineMixedPrecision(t *testing.T) {
	const iters = 3
	dev := testDevice(t)
	ref := sequentialTrace(t, dev, iters)
	opts := DefaultOptions(2)
	opts.Schedule = SchedulePipeline
	opts.PipelineDepth = 2
	opts.Precision = PrecisionMixed
	opts.MaxIter = iters
	opts.Tol = 1e-300
	res, err := Run(dev, opts)
	if !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("expected ErrNotConverged, got %v", err)
	}
	for i, st := range res.IterTrace {
		if e := relErr(st.Current, ref[i].Current); e > MixedCurrentTol {
			t.Errorf("iter %d: mixed current %.17g vs %.17g (rel %.3g)", i, st.Current, ref[i].Current, e)
		}
	}
}

// TestPipelineOptionValidation covers the pipeline-specific Validate
// paths: the depth default, depth misuse under other schedules, and the
// error probe's depth-1 rule.
func TestPipelineOptionValidation(t *testing.T) {
	o, err := (Options{Ranks: 2, Schedule: SchedulePipeline}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if o.PipelineDepth != 2 {
		t.Errorf("pipeline depth should default to 2, got %d", o.PipelineDepth)
	}
	if _, err := (Options{Ranks: 2, Schedule: SchedulePipeline, PipelineDepth: -1}).Validate(); err == nil {
		t.Error("negative pipeline depth must be rejected")
	}
	if _, err := (Options{Ranks: 2, PipelineDepth: 2}).Validate(); err == nil {
		t.Error("PipelineDepth under SchedulePhases must be rejected")
	}
	if _, err := (Options{Ranks: 2, Schedule: ScheduleOverlap, PipelineDepth: 2}).Validate(); err == nil {
		t.Error("PipelineDepth under ScheduleOverlap must be rejected")
	}
	if _, err := (Options{Ranks: 2, Schedule: SchedulePipeline,
		Precision: PrecisionMixed, ErrorProbe: true}).Validate(); err == nil {
		t.Error("ErrorProbe under SchedulePipeline at the default depth must be rejected")
	}
	if _, err := (Options{Ranks: 2, Schedule: SchedulePipeline, PipelineDepth: 1,
		Precision: PrecisionMixed, ErrorProbe: true}).Validate(); err != nil {
		t.Errorf("ErrorProbe in a depth-1 window must be accepted: %v", err)
	}
	// FP64 silently clears the probe (as on the other schedules), so the
	// combination is not an error there.
	if _, err := (Options{Ranks: 2, Schedule: SchedulePipeline, ErrorProbe: true}).Validate(); err != nil {
		t.Errorf("FP64 clears the probe before the schedule check: %v", err)
	}
	if got := SchedulePipeline.String(); got != "pipeline" {
		t.Errorf("SchedulePipeline.String() = %q", got)
	}
}

// TestPipelineWindowWallTimes checks the per-iteration telemetry of the
// window: wall times are positive and sum to no more than the run's
// envelope would allow (each iteration's WallNs is the conv-to-conv
// delta within its window).
func TestPipelineWindowWallTimes(t *testing.T) {
	dev := testDevice(t)
	opts := DefaultOptions(2)
	opts.Schedule = SchedulePipeline
	opts.PipelineDepth = 2
	opts.MaxIter = 4
	opts.Tol = 1e-300
	start := time.Now()
	res, err := Run(dev, opts)
	wall := time.Since(start)
	if !errors.Is(err, negf.ErrNotConverged) {
		t.Fatal(err)
	}
	var sum int64
	for _, it := range res.IterTrace {
		if it.WallNs <= 0 {
			t.Errorf("iter %d: WallNs = %d", it.Iter, it.WallNs)
		}
		sum += it.WallNs
	}
	if sum > wall.Nanoseconds() {
		t.Errorf("per-iteration wall times sum to %d ns > run wall %d ns", sum, wall.Nanoseconds())
	}
}

func ExampleSchedule_String() {
	fmt.Println(SchedulePhases, ScheduleOverlap, SchedulePipeline)
	// Output: phases overlap pipeline
}
