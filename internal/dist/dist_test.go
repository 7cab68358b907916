package dist

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/sse"
)

func testDevice(t testing.TB) *device.Device {
	t.Helper()
	p := device.TestParams(12, 3, 2)
	p.NE = 12
	p.Nomega = 3
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// sequentialTrace runs the reference solver for exactly iters iterations.
func sequentialTrace(t *testing.T, dev *device.Device, iters int) []negf.IterStats {
	t.Helper()
	s := negf.New(dev, negf.Options{
		Kernel: sse.DaCe{}, CacheMode: bc.CacheBC,
		Mixing: 0.5, MaxIter: iters, Tol: 1e-300,
	})
	if _, err := s.Run(); !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("reference run: expected ErrNotConverged, got %v", err)
	}
	return s.IterTrace
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300)
}

// TestMatchesSequential is the acceptance criterion of the subsystem: the
// distributed loop's per-iteration left-contact currents (and collision
// integrals) must match the sequential solver within 1e-12 for every
// world size, since both execute the same arithmetic up to floating-point
// reduction ordering.
func TestMatchesSequential(t *testing.T) {
	const iters = 5
	dev := testDevice(t)
	ref := sequentialTrace(t, dev, iters)
	if len(ref) != iters {
		t.Fatalf("reference trace has %d iterations, want %d", len(ref), iters)
	}

	for _, ranks := range []int{1, 2, 4, 8} {
		opts := DefaultOptions(ranks)
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

// TestAtomTiling runs the same equivalence through the atom×energy tile
// split (Ta>1), exercising the neighbour-halo path of the SSE exchange.
func TestAtomTiling(t *testing.T) {
	const iters = 4
	dev := testDevice(t)
	ref := sequentialTrace(t, dev, iters)

	opts := DefaultOptions(4)
	opts.Ta, opts.TE = 2, 2
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

// TestCommAccounting checks the measured traffic structure: a single rank
// exchanges nothing (all transfers are self-sends), while P>1 moves SSE
// and reduction bytes every iteration.
func TestCommAccounting(t *testing.T) {
	dev := testDevice(t)
	opts := DefaultOptions(1)
	opts.MaxIter = 2
	opts.Tol = 1e-300
	res, err := Run(dev, opts)
	if err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatal(err)
	}
	if res.Comm.BytesSent != 0 {
		t.Errorf("P=1 moved %d bytes; self-sends must be free", res.Comm.BytesSent)
	}

	opts = DefaultOptions(4)
	opts.MaxIter = 2
	opts.Tol = 1e-300
	res, err = Run(dev, opts)
	if err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatal(err)
	}
	for i, st := range res.IterTrace {
		if st.SSEBytes <= 0 {
			t.Errorf("iter %d: no SSE traffic measured", i)
		}
		if st.ReduceBytes <= 0 {
			t.Errorf("iter %d: no reduction traffic measured", i)
		}
	}
	if got := res.Comm.Collectives["Alltoallv"]; got != 4*2 {
		t.Errorf("Alltoallv count = %d, want 8 (4 per iteration)", got)
	}
	var pairs, points int
	for _, l := range res.Load {
		pairs += l.Pairs
		points += l.Points
	}
	p := dev.P
	if pairs != p.Nkz*p.NE || points != p.Nqz()*p.Nomega {
		t.Errorf("load report covers %d pairs / %d points, want %d / %d",
			pairs, points, p.Nkz*p.NE, p.Nqz()*p.Nomega)
	}
}

// TestRankErrorAborts breaks the boundary-condition decimation on every
// rank and checks the failure is agreed collectively: the run must return
// the underlying error instead of deadlocking the healthy ranks in the
// next collective.
func TestRankErrorAborts(t *testing.T) {
	dev := testDevice(t)
	dev.P.Eta = 0 // Sancho-Rubio cannot converge without broadening
	opts := DefaultOptions(4)
	opts.MaxIter = 2
	done := make(chan error, 1)
	go func() {
		_, err := Run(dev, opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, bc.ErrNoConvergence) {
			t.Fatalf("expected the boundary error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("distributed run deadlocked on a rank error")
	}
}

// TestSingleZeroTileField checks Validate infers the missing tile count.
func TestSingleZeroTileField(t *testing.T) {
	dev := testDevice(t)
	opts := DefaultOptions(2)
	opts.Ta, opts.TE = 2, 0 // infer TE = 1
	opts.MaxIter = 2
	opts.Tol = 1e-300
	if _, err := Run(dev, opts); err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("Ta=2, TE=0 should infer TE=1: %v", err)
	}
	opts = DefaultOptions(3)
	opts.Ta, opts.TE = 2, 0 // 3 ranks not divisible by Ta=2
	if _, err := Run(dev, opts); err == nil {
		t.Fatal("indivisible tile split must be rejected")
	}
}

// TestConvergedRun lets the loop terminate on its own tolerance and
// checks the distributed result agrees with the sequential solver.
func TestConvergedRun(t *testing.T) {
	dev := testDevice(t)
	seq := negf.New(dev, negf.DefaultOptions())
	obs, err := seq.Run()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}

	opts := DefaultOptions(2)
	res, err := Run(dev, opts)
	if err != nil {
		t.Fatalf("distributed: %v", err)
	}
	if !res.Converged {
		t.Fatal("distributed run did not converge")
	}
	if len(res.IterTrace) != len(seq.IterTrace) {
		t.Fatalf("iteration counts differ: dist %d vs seq %d", len(res.IterTrace), len(seq.IterTrace))
	}
	if e := relErr(res.Obs.CurrentL, obs.CurrentL); e > 1e-12 {
		t.Errorf("final current %.17g vs %.17g (rel %.3g)", res.Obs.CurrentL, obs.CurrentL, e)
	}
	for i := range res.Obs.DissipatedPower {
		if e := math.Abs(res.Obs.DissipatedPower[i] - obs.DissipatedPower[i]); e > 1e-12 {
			t.Errorf("dissipated power[%d] differs by %g", i, e)
		}
	}
	for a := range res.Obs.AtomTemperature {
		if e := math.Abs(res.Obs.AtomTemperature[a] - obs.AtomTemperature[a]); e > 1e-6 {
			t.Errorf("temperature[%d] differs by %g K", a, e)
		}
	}
}

// TestSingleRankFoldBitwiseMatchesSequential: a one-rank world sweeps and
// folds the same shard through the same negf code as the sequential
// solver, so the first iteration's observables agree bit for bit — not
// merely within the 1e-12 reduction-order tolerance — under every
// schedule. LDOS is the one field a distributed run does not carry.
func TestSingleRankFoldBitwiseMatchesSequential(t *testing.T) {
	dev := testDevice(t)
	seq := negf.New(dev, negf.DefaultOptions())
	if err := seq.GFPhase(); err != nil {
		t.Fatal(err)
	}
	want := seq.Obs
	want.LDOS = nil
	for _, sched := range []Schedule{SchedulePhases, ScheduleOverlap, SchedulePipeline} {
		opts := DefaultOptions(1)
		opts.Schedule = sched
		opts.MaxIter = 1
		res, err := Run(dev, opts)
		if !errors.Is(err, negf.ErrNotConverged) {
			t.Fatalf("%v: expected ErrNotConverged after one iteration, got %v", sched, err)
		}
		if !reflect.DeepEqual(res.Obs, want) {
			t.Errorf("%v: observables differ from the sequential GF phase:\n got %+v\nwant %+v", sched, res.Obs, want)
		}
	}
}
