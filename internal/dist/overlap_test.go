package dist

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/bc"
	"repro/internal/negf"
)

// TestOverlapMatchesSequential is the acceptance criterion of the
// overlapped schedule: per-iteration contact currents identical (within
// floating-point reduction ordering, ≤1e-12) to the sequential solver for
// every world size, despite the completely different execution order.
func TestOverlapMatchesSequential(t *testing.T) {
	const iters = 5
	dev := testDevice(t)
	ref := sequentialTrace(t, dev, iters)

	for _, ranks := range []int{1, 2, 4, 8} {
		opts := DefaultOptions(ranks)
		opts.Schedule = ScheduleOverlap
		opts.Workers = 3
		opts.MaxIter = iters
		opts.Tol = 1e-300
		res, err := Run(dev, opts)
		if !errors.Is(err, negf.ErrNotConverged) {
			t.Fatalf("P=%d: expected ErrNotConverged, got %v", ranks, err)
		}
		if len(res.IterTrace) != iters {
			t.Fatalf("P=%d: trace has %d iterations, want %d", ranks, len(res.IterTrace), iters)
		}
		for i, st := range res.IterTrace {
			if e := relErr(st.Current, ref[i].Current); e > 1e-12 {
				t.Errorf("P=%d iter %d: current %.17g vs sequential %.17g (rel %.3g)",
					ranks, i, st.Current, ref[i].Current, e)
			}
			if e := relErr(st.ElEnergyLoss, ref[i].ElEnergyLoss); e > 1e-10 {
				t.Errorf("P=%d iter %d: R_e %.17g vs %.17g (rel %.3g)",
					ranks, i, st.ElEnergyLoss, ref[i].ElEnergyLoss, e)
			}
			if e := relErr(st.PhEnergyGain, ref[i].PhEnergyGain); e > 1e-10 {
				t.Errorf("P=%d iter %d: R_ph %.17g vs %.17g (rel %.3g)",
					ranks, i, st.PhEnergyGain, ref[i].PhEnergyGain, e)
			}
		}
	}
}

// TestOverlapMatchesPhases compares the two schedules directly: identical
// arithmetic means bitwise-equal traces, kernel counters, and traffic.
func TestOverlapMatchesPhases(t *testing.T) {
	const iters = 4
	dev := testDevice(t)

	phases := DefaultOptions(4)
	phases.MaxIter = iters
	phases.Tol = 1e-300
	pres, err := Run(dev, phases)
	if !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("phases: %v", err)
	}

	overlap := phases
	overlap.Schedule = ScheduleOverlap
	overlap.Workers = 4
	ores, err := Run(dev, overlap)
	if !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("overlap: %v", err)
	}

	if len(ores.IterTrace) != len(pres.IterTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(ores.IterTrace), len(pres.IterTrace))
	}
	for i := range ores.IterTrace {
		o, p := ores.IterTrace[i], pres.IterTrace[i]
		if o.Current != p.Current {
			t.Errorf("iter %d: current %.17g vs %.17g", i, o.Current, p.Current)
		}
		if o.SSE != p.SSE {
			t.Errorf("iter %d: SSE stats differ: %+v vs %+v", i, o.SSE, p.SSE)
		}
		// The overlapped path counts its traffic at pack time, the phase
		// path by counter snapshots — both measure the same exchanges.
		if o.SSEBytes != p.SSEBytes {
			t.Errorf("iter %d: SSE bytes %d vs %d", i, o.SSEBytes, p.SSEBytes)
		}
		if o.ReduceBytes != p.ReduceBytes {
			t.Errorf("iter %d: reduce bytes %d vs %d", i, o.ReduceBytes, p.ReduceBytes)
		}
	}
	if ores.Obs.CurrentL != pres.Obs.CurrentL {
		t.Errorf("final current %.17g vs %.17g", ores.Obs.CurrentL, pres.Obs.CurrentL)
	}
	for a := range ores.Obs.AtomTemperature {
		if d := math.Abs(ores.Obs.AtomTemperature[a] - pres.Obs.AtomTemperature[a]); d > 1e-9 {
			t.Errorf("temperature[%d] differs by %g K", a, d)
		}
	}
	for i := range ores.Load {
		if ores.Load[i].Pairs != pres.Load[i].Pairs || ores.Load[i].Points != pres.Load[i].Points {
			t.Errorf("load[%d] differs: %+v vs %+v", i, ores.Load[i], pres.Load[i])
		}
	}
}

// TestOverlapAtomTiling runs the overlapped schedule through the Ta>1
// atom-tile split, exercising the neighbour-halo packs under the
// nonblocking exchange.
func TestOverlapAtomTiling(t *testing.T) {
	const iters = 3
	dev := testDevice(t)
	ref := sequentialTrace(t, dev, iters)

	opts := DefaultOptions(4)
	opts.Ta, opts.TE = 2, 2
	opts.Schedule = ScheduleOverlap
	opts.MaxIter = iters
	opts.Tol = 1e-300
	res, err := Run(dev, opts)
	if !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("expected ErrNotConverged, got %v", err)
	}
	for i, st := range res.IterTrace {
		if e := relErr(st.Current, ref[i].Current); e > 1e-12 {
			t.Errorf("Ta=2 TE=2 iter %d: current %.17g vs %.17g (rel %.3g)",
				i, st.Current, ref[i].Current, e)
		}
	}
}

// TestOverlapCommAccounting cross-checks the pack-time byte counting of
// the overlapped schedule against the comm layer's own counters, with no
// barriers involved — and with a Progress hook installed, which must cost
// no collective of its own: cancellation rides the observable reduction.
func TestOverlapCommAccounting(t *testing.T) {
	const iters = 2
	dev := testDevice(t)
	opts := DefaultOptions(4)
	opts.Schedule = ScheduleOverlap
	opts.MaxIter = iters
	opts.Tol = 1e-300
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
		t.Errorf("overlapped schedule must be barrier-free, saw %d barriers", got)
	}
	var sse, red int64
	for _, it := range res.IterTrace {
		if it.SSEBytes <= 0 || it.ReduceBytes <= 0 {
			t.Errorf("iter %d: empty traffic: %+v", it.Iter, it)
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

	// Single rank: everything is a self-send; no traffic at all.
	opts = DefaultOptions(1)
	opts.Schedule = ScheduleOverlap
	opts.MaxIter = 2
	opts.Tol = 1e-300
	res, err = Run(dev, opts)
	if err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatal(err)
	}
	if res.Comm.BytesSent != 0 {
		t.Errorf("P=1 moved %d bytes; self-sends must be free", res.Comm.BytesSent)
	}
}

// TestOverlapRankErrorAgreement breaks the boundary decimation and checks
// the deferred failure agreement: every rank still posts its collectives,
// the flag rides the observable reduction, and the run returns the real
// error instead of deadlocking — including with a single-worker pool, the
// tightest case for the post-before-wait discipline.
func TestOverlapRankErrorAgreement(t *testing.T) {
	for _, workers := range []int{1, 3} {
		dev := testDevice(t)
		dev.P.Eta = 0 // Sancho-Rubio cannot converge without broadening
		opts := DefaultOptions(4)
		opts.Schedule = ScheduleOverlap
		opts.Workers = workers
		opts.MaxIter = 2
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
			t.Fatalf("workers=%d: overlapped run deadlocked on a rank error", workers)
		}
	}
}

// TestOverlapStopRequest is TestPipelineStopRequest's contract at window
// depth 1: a Progress hook error on rank 0 rides the next iteration's
// reduction, all ranks discard that one speculative iteration, and Run
// returns the hook's error with the trace truncated at the iteration the
// hook saw — without deadlock even when each rank has a single worker.
func TestOverlapStopRequest(t *testing.T) {
	for _, workers := range []int{1, 2} {
		dev := testDevice(t)
		stop := errors.New("enough")
		opts := DefaultOptions(4)
		opts.Schedule = ScheduleOverlap
		opts.Workers = workers
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
			t.Fatalf("workers=%d: stop request deadlocked", workers)
		}
		if !errors.Is(err, stop) {
			t.Fatalf("workers=%d: expected the hook error, got %v", workers, err)
		}
		if len(res.IterTrace) != 2 {
			t.Errorf("workers=%d: trace has %d rows, want 2 (stop after iteration 1)", workers, len(res.IterTrace))
		}
		// Iterations 0 and 1 plus the discarded speculative one.
		if got := res.Comm.Collectives["Allreduce"]; got != 3 {
			t.Errorf("workers=%d: %d Allreduces, want 3", workers, got)
		}
	}
}

// TestOverlapSingleWorker runs the full equivalence with Workers=1 — the
// pool size where a misordered wait could deadlock, and where the
// schedule degenerates to a sequential topological order.
func TestOverlapSingleWorker(t *testing.T) {
	const iters = 3
	dev := testDevice(t)
	ref := sequentialTrace(t, dev, iters)
	opts := DefaultOptions(2)
	opts.Schedule = ScheduleOverlap
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

// TestOverlapConverged lets the overlapped loop terminate on its own
// tolerance and checks the converged result and NoCache mode (no BC
// nodes in the graph).
func TestOverlapConverged(t *testing.T) {
	dev := testDevice(t)
	seq := negf.New(dev, negf.DefaultOptions())
	obs, err := seq.Run()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}

	opts := DefaultOptions(2)
	opts.Schedule = ScheduleOverlap
	res, err := Run(dev, opts)
	if err != nil {
		t.Fatalf("distributed: %v", err)
	}
	if !res.Converged {
		t.Fatal("overlapped run did not converge")
	}
	if e := relErr(res.Obs.CurrentL, obs.CurrentL); e > 1e-12 {
		t.Errorf("final current %.17g vs %.17g (rel %.3g)", res.Obs.CurrentL, obs.CurrentL, e)
	}

	opts.CacheMode = bc.NoCache
	opts.MaxIter = 2
	opts.Tol = 1e-300
	if _, err := Run(dev, opts); err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("NoCache overlap: %v", err)
	}
}

// TestOptionValidation covers the Validate error paths and defaults.
func TestOptionValidation(t *testing.T) {
	if _, err := (Options{Ranks: 0}).Validate(); err == nil {
		t.Error("Ranks=0 must be rejected")
	}
	if _, err := (Options{Ranks: -2}).Validate(); err == nil {
		t.Error("negative Ranks must be rejected")
	}
	if _, err := (Options{Ranks: 4, Ta: 3, TE: 2}).Validate(); err == nil {
		t.Error("Ta·TE ≠ Ranks must be rejected")
	}
	if _, err := (Options{Ranks: 4, Ta: 8}).Validate(); err == nil {
		t.Error("Ta > Ranks with TE unset must be rejected")
	}
	if _, err := (Options{Ranks: 2, Schedule: Schedule(99)}).Validate(); err == nil {
		t.Error("unknown schedule must be rejected")
	}

	o, err := (Options{Ranks: 2, Mixing: 0}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if o.Mixing != 0.5 {
		t.Errorf("zero Mixing should default to 0.5, got %g", o.Mixing)
	}
	if o.MaxIter != 25 || o.Tol != 1e-5 {
		t.Errorf("defaults not applied: %+v", o)
	}
	o, err = (Options{Ranks: 6, TE: 3, Schedule: ScheduleOverlap}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if o.Ta != 2 {
		t.Errorf("Ta should be inferred as 2, got %d", o.Ta)
	}
	if o.Workers != 2 {
		t.Errorf("overlap Workers should default to 2, got %d", o.Workers)
	}
}
