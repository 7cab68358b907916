package dist

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/sse"
)

// The schedule suite. A schedule is a window depth and a pool size, so
// the suite is one table of (schedule, workers, depth) rows and one check
// per contract, each written once over a row. The Test* names predate the
// table (there was a file per schedule); each now selects its rows of the
// table and hands them to the shared check, so phases is one more row.

type sched struct {
	Schedule
	workers, depth int
}

// schedules is the table: phases, overlap × pool {1, 2, 4}, pipeline ×
// pool {1, 2, 4} × depth {1, 2, 3, 7} (7 exceeds every MaxIter below and
// exercises window clamping).
var schedules = func() []sched {
	rows := []sched{{Schedule: SchedulePhases}}
	for _, w := range []int{1, 2, 4} {
		rows = append(rows, sched{ScheduleOverlap, w, 0})
	}
	for _, w := range []int{1, 2, 4} {
		for _, d := range []int{1, 2, 3, 7} {
			rows = append(rows, sched{SchedulePipeline, w, d})
		}
	}
	return rows
}()

func (s sched) String() string {
	switch s.Schedule {
	case ScheduleOverlap:
		return fmt.Sprintf("overlap-w%d", s.workers)
	case SchedulePipeline:
		return fmt.Sprintf("pipeline-w%d-d%d", s.workers, s.depth)
	}
	return "phases"
}

// options returns the row's default options for a P-rank world; forced
// makes that a run of exactly iters iterations (a tolerance no run can
// meet).
func (s sched) options(ranks int) Options {
	o := DefaultOptions(ranks)
	o.Schedule, o.Workers, o.PipelineDepth = s.Schedule, s.workers, s.depth
	return o
}

func (s sched) forced(ranks, iters int) Options {
	o := s.options(ranks)
	o.MaxIter = iters
	o.Tol = 1e-300
	return o
}

func isPhases(s sched) bool   { return s.Schedule == SchedulePhases }
func isOverlap(s sched) bool  { return s.Schedule == ScheduleOverlap }
func isPipeline(s sched) bool { return s.Schedule == SchedulePipeline }
func anySchedule(sched) bool  { return true }

// forEach runs check as one subtest per selected row of the table.
func forEach(t *testing.T, sel func(sched) bool, check func(*testing.T, sched)) {
	for _, s := range schedules {
		if sel(s) {
			t.Run(s.String(), func(t *testing.T) { check(t, s) })
		}
	}
}

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

// mustRun runs opts to its iteration budget.
func mustRun(t *testing.T, tag string, opts Options) *Result {
	t.Helper()
	res, err := Run(testDevice(t), opts)
	if !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("%s: expected ErrNotConverged, got %v", tag, err)
	}
	if len(res.IterTrace) != opts.MaxIter {
		t.Fatalf("%s: trace has %d iterations, want %d", tag, len(res.IterTrace), opts.MaxIter)
	}
	return res
}

// sequentialTrace is the reference solver's trace over exactly iters
// iterations, solved once per length.
var seqTraces = map[int][]negf.IterStats{}

func sequentialTrace(t *testing.T, iters int) []negf.IterStats {
	t.Helper()
	if tr, ok := seqTraces[iters]; ok {
		return tr
	}
	s := negf.New(testDevice(t), negf.Options{
		Kernel: sse.DaCe{}, CacheMode: bc.CacheBC,
		Mixing: 0.5, MaxIter: iters, Tol: 1e-300,
	})
	if _, err := s.Run(); !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("reference run: expected ErrNotConverged, got %v", err)
	}
	seqTraces[iters] = s.IterTrace
	return s.IterTrace
}

// phasesRun is the SchedulePhases run of opts, solved once per
// configuration: the row every other row is compared to bit for bit.
var phasesRuns = map[string]*Result{}

func phasesRun(t *testing.T, opts Options) *Result {
	t.Helper()
	opts.Schedule, opts.Workers, opts.PipelineDepth = SchedulePhases, 0, 0
	key := fmt.Sprintf("P%d %dx%d %v i%d tol%g", opts.Ranks, opts.Ta, opts.TE, opts.Precision, opts.MaxIter, opts.Tol)
	if res, ok := phasesRuns[key]; ok {
		return res
	}
	res, err := Run(testDevice(t), opts)
	if err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("phases %s: %v", key, err)
	}
	phasesRuns[key] = res
	return res
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300)
}

// matchesSequential is the acceptance criterion of the subsystem: the
// per-iteration left-contact currents and collision integrals match the
// sequential solver within 1e-12 for every world size — the same
// arithmetic up to floating-point reduction ordering, whatever the
// execution order.
func matchesSequential(t *testing.T, s sched) {
	const iters = 5
	ref := sequentialTrace(t, iters)
	for _, ranks := range []int{1, 2, 4, 8} {
		res := mustRun(t, fmt.Sprint("P=", ranks), s.forced(ranks, iters))
		for i, st := range res.IterTrace {
			if st.Iter != i {
				t.Errorf("P=%d: row %d carries iteration %d", ranks, i, st.Iter)
			}
			if e := relErr(st.Current, ref[i].Current); e > 1e-12 {
				t.Errorf("P=%d iter %d: current %.17g vs sequential %.17g (rel %.3g)",
					ranks, i, st.Current, ref[i].Current, e)
			}
			if e := relErr(st.ElEnergyLoss, ref[i].ElEnergyLoss); e > 1e-12 {
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

func TestMatchesSequential(t *testing.T) { forEach(t, isPhases, matchesSequential) }
func TestOverlapMatchesSequential(t *testing.T) {
	forEach(t, func(s sched) bool { return isOverlap(s) && s.workers > 1 }, matchesSequential)
}
func TestPipelineMatchesSequential(t *testing.T) {
	forEach(t, func(s sched) bool { return isPipeline(s) && s.workers > 1 }, matchesSequential)
}

// The one-worker pools: where a misordered post/wait in the graph would
// deadlock instead of merely slowing down, and where the execution
// degenerates to a sequential topological order.
func TestOverlapSingleWorker(t *testing.T) {
	forEach(t, func(s sched) bool { return isOverlap(s) && s.workers == 1 }, matchesSequential)
}
func TestPipelineSingleWorker(t *testing.T) {
	forEach(t, func(s sched) bool { return isPipeline(s) && s.workers == 1 }, matchesSequential)
}

// atomTiling runs the same equivalence through the atom×energy tile
// split (Ta>1), exercising the neighbour-halo path of the SSE exchange.
func atomTiling(t *testing.T, s sched) {
	const iters = 4
	ref := sequentialTrace(t, iters)
	opts := s.forced(4, iters)
	opts.Ta, opts.TE = 2, 2
	for i, st := range mustRun(t, "2×2", opts).IterTrace {
		if e := relErr(st.Current, ref[i].Current); e > 1e-12 {
			t.Errorf("Ta=2 TE=2 iter %d: current %.17g vs %.17g (rel %.3g)", i, st.Current, ref[i].Current, e)
		}
	}
}

func TestAtomTiling(t *testing.T) { forEach(t, isPhases, atomTiling) }
func TestOverlapAtomTiling(t *testing.T) {
	forEach(t, func(s sched) bool { return !isPhases(s) }, atomTiling)
}

// bitwiseMatchesPhases pins the strongest equivalence: every row executes
// the identical per-iteration arithmetic in the identical association, so
// traces, kernel counters, traffic and the final state equal the phases
// row's bit for bit, for P ∈ {1, 2, 4, 8}.
func bitwiseMatchesPhases(prec Precision) func(*testing.T, sched) {
	return func(t *testing.T, s sched) {
		const iters = 4
		for _, ranks := range []int{1, 2, 4, 8} {
			opts := s.forced(ranks, iters)
			opts.Precision = prec
			tag := fmt.Sprintf("%v P=%d", prec, ranks)
			res, pres := mustRun(t, tag, opts), phasesRun(t, opts)
			for i := range res.IterTrace {
				o, p := res.IterTrace[i], pres.IterTrace[i]
				if o.Current != p.Current || o.Residual != p.Residual {
					t.Errorf("%s iter %d: current %.17g (residual %g) vs %.17g (%g)", tag, i, o.Current, o.Residual, p.Current, p.Residual)
				}
				if o.SSE != p.SSE {
					t.Errorf("%s iter %d: SSE stats differ: %+v vs %+v", tag, i, o.SSE, p.SSE)
				}
				if o.SSEBytes != p.SSEBytes || o.ReduceBytes != p.ReduceBytes {
					t.Errorf("%s iter %d: SSE/reduce bytes %d/%d vs %d/%d", tag, i, o.SSEBytes, o.ReduceBytes, p.SSEBytes, p.ReduceBytes)
				}
			}
			if res.Obs.CurrentL != pres.Obs.CurrentL {
				t.Errorf("%s: final current %.17g vs %.17g", tag, res.Obs.CurrentL, pres.Obs.CurrentL)
			}
			if !reflect.DeepEqual(res.Obs.AtomTemperature, pres.Obs.AtomTemperature) {
				t.Errorf("%s: temperature map differs:\n got %v\nwant %v", tag, res.Obs.AtomTemperature, pres.Obs.AtomTemperature)
			}
			for i := range res.Load {
				if res.Load[i].Pairs != pres.Load[i].Pairs || res.Load[i].Points != pres.Load[i].Points {
					t.Errorf("%s: load[%d] differs: %+v vs %+v", tag, i, res.Load[i], pres.Load[i])
				}
			}
		}
	}
}

func TestOverlapMatchesPhases(t *testing.T) {
	forEach(t, isOverlap, bitwiseMatchesPhases(PrecisionFP64))
}
func TestPipelineBitwiseMatchesPhases(t *testing.T) {
	forEach(t, isPipeline, bitwiseMatchesPhases(PrecisionFP64))
	forEach(t, isPipeline, bitwiseMatchesPhases(PrecisionMixed))
}

// commAccounting checks the wire contract of an iteration: exactly four
// Alltoallv and one Allreduce, no barrier and no agreement collective —
// with or without a Progress hook, whose cancellation rides the
// observable reduction — and per-iteration byte telemetry that sums to
// what the comm layer measured. A single rank exchanges nothing (every
// transfer is a self-send).
func commAccounting(t *testing.T, s sched) {
	const iters = 3
	dev := testDevice(t)
	for _, hook := range []func(IterStats) error{nil, func(IterStats) error { return nil }} {
		opts := s.forced(4, iters)
		opts.Progress = hook
		tag := fmt.Sprintf("hook=%t", hook != nil)
		res := mustRun(t, tag, opts)
		want := map[string]int64{"Alltoallv": 4 * iters, "Allreduce": iters, "Barrier": 0}
		for name, n := range want {
			if got := res.Comm.Collectives[name]; got != n {
				t.Errorf("%s: %s count = %d, want %d", tag, name, got, n)
			}
		}
		var sse, red int64
		for _, it := range res.IterTrace {
			if it.SSEBytes <= 0 || it.ReduceBytes <= 0 {
				t.Errorf("%s iter %d: empty traffic: %+v", tag, it.Iter, it)
			}
			if it.ComputeNs <= 0 || it.CommNs <= 0 {
				t.Errorf("%s iter %d: no compute/comm split recorded: %+v", tag, it.Iter, it)
			}
			sse += it.SSEBytes
			red += it.ReduceBytes
		}
		if got := res.Comm.CollectiveBytes["Alltoallv"]; got != sse {
			t.Errorf("%s: pack-time SSE bytes %d != comm-layer %d", tag, sse, got)
		}
		if got := res.Comm.CollectiveBytes["Allreduce"]; got != red {
			t.Errorf("%s: analytic reduce bytes %d != comm-layer %d", tag, red, got)
		}
		var pairs, points int
		for _, l := range res.Load {
			pairs += l.Pairs
			points += l.Points
		}
		if p := dev.P; pairs != p.Nkz*p.NE || points != p.Nqz()*p.Nomega {
			t.Errorf("%s: load report covers %d pairs / %d points, want %d / %d",
				tag, pairs, points, p.Nkz*p.NE, p.Nqz()*p.Nomega)
		}
	}
	if res := mustRun(t, "P=1", s.forced(1, 2)); res.Comm.BytesSent != 0 {
		t.Errorf("P=1 moved %d bytes; self-sends must be free", res.Comm.BytesSent)
	}
}

func TestCommAccounting(t *testing.T)         { forEach(t, isPhases, commAccounting) }
func TestOverlapCommAccounting(t *testing.T)  { forEach(t, isOverlap, commAccounting) }
func TestPipelineCommAccounting(t *testing.T) { forEach(t, isPipeline, commAccounting) }

// within fails the test when f has not returned after the deadlock guard.
func within(t *testing.T, tag string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: distributed run deadlocked", tag)
	}
}

// rankError breaks the boundary-condition decimation and checks the
// failure is agreed collectively: every rank still posts its
// collectives, the flag rides the observable reduction, the window
// drains, and Run returns the underlying error instead of deadlocking the
// healthy ranks — for P ∈ {2, 4}, down to the one-worker pools, the
// tightest case for the post-before-wait discipline.
func rankError(t *testing.T, s sched) {
	for _, ranks := range []int{2, 4} {
		dev := testDevice(t)
		dev.P.Eta = 0 // Sancho-Rubio cannot converge without broadening
		opts := s.forced(ranks, 4)
		var err error
		within(t, fmt.Sprint("P=", ranks), func() { _, err = Run(dev, opts) })
		if err == nil || !errors.Is(err, bc.ErrNoConvergence) {
			t.Fatalf("P=%d: expected the boundary error, got %v", ranks, err)
		}
	}
}

func TestRankErrorAborts(t *testing.T)            { forEach(t, isPhases, rankError) }
func TestOverlapRankErrorAgreement(t *testing.T)  { forEach(t, isOverlap, rankError) }
func TestPipelineRankErrorAgreement(t *testing.T) { forEach(t, isPipeline, rankError) }

// TestNonFiniteCurrent: a NaN contact temperature poisons the injection
// on every rank without failing any solve, so the failure is decided from
// the reduced current alone — every rank leaves the same iteration with
// the typed negf.ErrNonFinite, on every row.
func TestNonFiniteCurrent(t *testing.T) {
	forEach(t, anySchedule, func(t *testing.T, s sched) {
		dev := testDevice(t)
		dev.P.TC = math.NaN()
		var err error
		within(t, "non-finite current", func() { _, err = Run(dev, s.forced(4, 3)) })
		var nf negf.ErrNonFinite
		if !errors.As(err, &nf) || nf.Iter != 0 {
			t.Fatalf("expected negf.ErrNonFinite at iteration 0, got %v", err)
		}
	})
}

// stopRequest covers the ride-along cancellation: a Progress hook error
// on rank 0 is folded into the next reduction's control word, all ranks
// discard that one iteration symmetrically — every comm post of an
// iteration waits for the previous conv fence, so the request can never
// miss the next reduction, whether the stop lands mid-window or at a
// window boundary — and Run returns the hook's error with the trace
// truncated at the iteration the hook saw.
func stopRequest(t *testing.T, s sched) {
	stop := errors.New("enough")
	opts := s.forced(4, 8)
	opts.Progress = func(st IterStats) error {
		if st.Iter >= 1 {
			return stop
		}
		return nil
	}
	var res *Result
	var err error
	within(t, "stop request", func() { res, err = Run(testDevice(t), opts) })
	if !errors.Is(err, stop) {
		t.Fatalf("expected the hook error, got %v", err)
	}
	if len(res.IterTrace) != 2 {
		t.Errorf("trace has %d rows, want 2 (stop after iteration 1)", len(res.IterTrace))
	}
	// Iterations 0 and 1 plus the one discarded.
	if got := res.Comm.Collectives["Allreduce"]; got != 3 {
		t.Errorf("%d Allreduces, want 3", got)
	}
}

func TestStopRequest(t *testing.T)         { forEach(t, isPhases, stopRequest) }
func TestOverlapStopRequest(t *testing.T)  { forEach(t, isOverlap, stopRequest) }
func TestPipelineStopRequest(t *testing.T) { forEach(t, isPipeline, stopRequest) }

// converged lets the loop terminate on its own tolerance: the fence must
// discard any speculated iterations past the converged one, keep the
// temperature accumulators at the converged iteration, and report the
// sequential solver's converged state — the phases row's bit for bit. It
// also covers NoCache mode (no BC nodes in the graph).
func converged(t *testing.T, s sched) {
	dev := testDevice(t)
	seq := negf.New(dev, negf.DefaultOptions())
	obs, err := seq.Run()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	opts := s.options(2)
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
	pres := phasesRun(t, opts)
	if res.Obs.CurrentL != pres.Obs.CurrentL || !reflect.DeepEqual(res.Obs.AtomTemperature, pres.Obs.AtomTemperature) {
		t.Errorf("converged state differs from the phases row: current %.17g vs %.17g, temperatures\n got %v\nwant %v",
			res.Obs.CurrentL, pres.Obs.CurrentL, res.Obs.AtomTemperature, pres.Obs.AtomTemperature)
	}

	opts = s.forced(2, 2)
	opts.CacheMode = bc.NoCache
	mustRun(t, "NoCache", opts)
}

func TestConvergedRun(t *testing.T)      { forEach(t, isPhases, converged) }
func TestOverlapConverged(t *testing.T)  { forEach(t, isOverlap, converged) }
func TestPipelineConverged(t *testing.T) { forEach(t, isPipeline, converged) }

// TestSingleRankFoldBitwiseMatchesSequential: a one-rank world sweeps and
// folds the same shard through the same negf code as the sequential
// solver, so the first iteration's observables agree bit for bit — not
// merely within the 1e-12 reduction-order tolerance — on every row. LDOS
// is the one field a distributed run does not carry.
func TestSingleRankFoldBitwiseMatchesSequential(t *testing.T) {
	seq := negf.New(testDevice(t), negf.DefaultOptions())
	if err := seq.GFPhase(); err != nil {
		t.Fatal(err)
	}
	want := seq.Obs
	want.LDOS = nil
	forEach(t, anySchedule, func(t *testing.T, s sched) {
		if res := mustRun(t, "P=1", s.forced(1, 1)); !reflect.DeepEqual(res.Obs, want) {
			t.Errorf("observables differ from the sequential GF phase:\n got %+v\nwant %+v", res.Obs, want)
		}
	})
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

// TestOptionValidation covers the Validate error paths and defaults.
func TestOptionValidation(t *testing.T) {
	for name, o := range map[string]Options{
		"Ranks=0":              {Ranks: 0},
		"negative Ranks":       {Ranks: -2},
		"Ta·TE ≠ Ranks":        {Ranks: 4, Ta: 3, TE: 2},
		"Ta > Ranks, TE unset": {Ranks: 4, Ta: 8},
		"unknown schedule":     {Ranks: 2, Schedule: Schedule(99)},
		// NaN fails every range comparison, so without a finiteness check
		// it would skip the defaults and reach tensor.MixSlice and the
		// convergence test as is.
		"NaN Mixing":  {Ranks: 2, Mixing: math.NaN()},
		"+Inf Mixing": {Ranks: 2, Mixing: math.Inf(1)},
		"NaN Tol":     {Ranks: 2, Tol: math.NaN()},
		"+Inf Tol":    {Ranks: 2, Tol: math.Inf(1)},
		"-Inf Tol":    {Ranks: 2, Tol: math.Inf(-1)},
	} {
		if _, err := o.Validate(); err == nil {
			t.Errorf("%s must be rejected", name)
		}
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

// TestScheduleResolution: Validate is where a schedule becomes the two
// integers the engine reads — and resolved options validate to
// themselves.
func TestScheduleResolution(t *testing.T) {
	for _, c := range []struct {
		in             Options
		depth, workers int
	}{
		{Options{Ranks: 2}, 1, 1},
		{Options{Ranks: 2, Workers: 4}, 1, 1},
		{Options{Ranks: 2, Schedule: ScheduleOverlap}, 1, 2},
		{Options{Ranks: 2, Schedule: ScheduleOverlap, Workers: 4}, 1, 4},
		{Options{Ranks: 2, Schedule: SchedulePipeline}, 2, 2},
		{Options{Ranks: 2, Schedule: SchedulePipeline, Workers: 1, PipelineDepth: 7}, 7, 1},
	} {
		o, err := c.in.Validate()
		if err != nil {
			t.Fatalf("%+v: %v", c.in, err)
		}
		if o.PipelineDepth != c.depth || o.Workers != c.workers {
			t.Errorf("%v resolves to depth %d × %d workers, want %d × %d",
				c.in.Schedule, o.PipelineDepth, o.Workers, c.depth, c.workers)
		}
		if again, err := o.Validate(); err != nil || !reflect.DeepEqual(again, o) {
			t.Errorf("%v: resolved options do not validate to themselves: %+v, %v", c.in.Schedule, again, err)
		}
	}
}

// TestLoopDefaultsAgree: the two loops resolve an unset or out-of-range
// loop knob to the same value — negf.DefaultOptions' — so a zero Tol is
// 1e-5 in both, not "never converge" in one of them.
func TestLoopDefaultsAgree(t *testing.T) {
	dev := testDevice(t)
	def := negf.DefaultOptions()
	for _, c := range []struct {
		name    string
		mixing  float64
		maxIter int
		tol     float64
	}{
		{"all zero", 0, 0, 0},
		{"out of range", 1.5, -3, -1e-5},
		{"set", 0.25, 7, 1e-9},
	} {
		seq := negf.New(dev, negf.Options{Mixing: c.mixing, MaxIter: c.maxIter, Tol: c.tol}).Opts
		par, err := (Options{Ranks: 2, Mixing: c.mixing, MaxIter: c.maxIter, Tol: c.tol}).Validate()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if seq.Mixing != par.Mixing || seq.MaxIter != par.MaxIter || seq.Tol != par.Tol {
			t.Errorf("%s: negf.New resolves to mixing %g, %d iterations, tol %g; dist.Validate to %g, %d, %g",
				c.name, seq.Mixing, seq.MaxIter, seq.Tol, par.Mixing, par.MaxIter, par.Tol)
		}
		if c.name != "set" && (seq.Mixing != def.Mixing || seq.MaxIter != def.MaxIter || seq.Tol != def.Tol) {
			t.Errorf("%s: resolved to mixing %g, %d iterations, tol %g, not the defaults %g, %d, %g",
				c.name, seq.Mixing, seq.MaxIter, seq.Tol, def.Mixing, def.MaxIter, def.Tol)
		}
	}
}

// TestPipelineOptionValidation covers the window-depth Validate paths:
// the depth default, depth misuse under the depth-1 schedules, and the
// error probe's depth-1 rule.
func TestPipelineOptionValidation(t *testing.T) {
	if _, err := (Options{Ranks: 2, Schedule: SchedulePipeline, PipelineDepth: -1}).Validate(); err == nil {
		t.Error("negative pipeline depth must be rejected")
	}
	for _, d := range []int{-1, 2} {
		if _, err := (Options{Ranks: 2, PipelineDepth: d}).Validate(); err == nil {
			t.Errorf("PipelineDepth %d under SchedulePhases must be rejected", d)
		}
		if _, err := (Options{Ranks: 2, Schedule: ScheduleOverlap, PipelineDepth: d}).Validate(); err == nil {
			t.Errorf("PipelineDepth %d under ScheduleOverlap must be rejected", d)
		}
	}
	if _, err := (Options{Ranks: 2, Schedule: SchedulePipeline,
		Precision: PrecisionMixed, ErrorProbe: true}).Validate(); err == nil {
		t.Error("ErrorProbe under SchedulePipeline at the default depth must be rejected")
	}
	if _, err := (Options{Ranks: 2, Schedule: SchedulePipeline, PipelineDepth: 1,
		Precision: PrecisionMixed, ErrorProbe: true}).Validate(); err != nil {
		t.Errorf("ErrorProbe in a depth-1 window must be accepted: %v", err)
	}
	// FP64 silently clears the probe, so the combination is not an error
	// there.
	if _, err := (Options{Ranks: 2, Schedule: SchedulePipeline, ErrorProbe: true}).Validate(); err != nil {
		t.Errorf("FP64 clears the probe before the depth check: %v", err)
	}
}

// TestPipelineWindowWallTimes checks the per-iteration telemetry of the
// window: wall times are positive and sum to no more than the run's
// envelope would allow (each iteration's WallNs is the conv-to-conv
// delta within its window).
func TestPipelineWindowWallTimes(t *testing.T) {
	opts := sched{SchedulePipeline, 2, 2}.forced(2, 4)
	start := time.Now()
	res := mustRun(t, "pipeline", opts)
	wall := time.Since(start)
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
