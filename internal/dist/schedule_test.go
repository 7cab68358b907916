package dist

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bc"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/obs"
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
	o := Options{Ranks: ranks}
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

// oneRankTrace is the reference trace over exactly iters iterations: the
// one-rank world, where there is nothing to reorder (qt's
// TestRanksAbsentLoopDigests pins it to the deleted sequential solver),
// solved once per length.
var oneRankTraces = map[int][]negf.IterStats{}

func oneRankTrace(t *testing.T, iters int) []negf.IterStats {
	t.Helper()
	if tr, ok := oneRankTraces[iters]; ok {
		return tr
	}
	tr := mustRun(t, "reference", sched{Schedule: SchedulePhases}.forced(1, iters)).IterTrace
	oneRankTraces[iters] = tr
	return tr
}

// phasesRun is the SchedulePhases run of opts, solved once per
// configuration: the row every other row is compared to bit for bit.
var phasesRuns = map[string]*Result{}

func phasesRun(t *testing.T, opts Options) *Result {
	t.Helper()
	opts.Schedule, opts.Workers, opts.PipelineDepth = SchedulePhases, 0, 0
	key := fmt.Sprintf("P%d %dx%d %v probe=%v i%d tol%g", opts.Ranks, opts.Ta, opts.TE, opts.Precision, opts.ErrorProbe, opts.MaxIter, opts.Tol)
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
// one-rank run within 1e-12 for every world size — the same arithmetic
// up to floating-point reduction ordering, whatever the execution order.
func matchesSequential(t *testing.T, s sched) {
	const iters = 5
	ref := oneRankTrace(t, iters)
	for _, ranks := range []int{1, 2, 4, 8} {
		res := mustRun(t, fmt.Sprint("P=", ranks), s.forced(ranks, iters))
		for i, st := range res.IterTrace {
			if st.Iter != i {
				t.Errorf("P=%d: row %d carries iteration %d", ranks, i, st.Iter)
			}
			if e := relErr(st.Current, ref[i].Current); e > 1e-12 {
				t.Errorf("P=%d iter %d: current %.17g vs one rank %.17g (rel %.3g)",
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
	ref := oneRankTrace(t, iters)
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
// traces, kernel counters, traffic, fallback counts and the final state
// equal the phases row's bit for bit, for P ∈ {1, 2, 4, 8}. Under mixed
// precision the error probe is on, so its deviation is compared too. The
// counters belong to the rank's one tile plan, which every slot of a
// deeper window shares, so a slot that counted another's exchanges shows
// here.
func bitwiseMatchesPhases(prec Precision) func(*testing.T, sched) {
	return func(t *testing.T, s sched) {
		const iters = 4
		for _, ranks := range []int{1, 2, 4, 8} {
			opts := s.forced(ranks, iters)
			opts.Precision = prec
			opts.ErrorProbe = prec == PrecisionMixed
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
				if o.FallbackBlocks != p.FallbackBlocks {
					t.Errorf("%s iter %d: fallback blocks %d vs %d", tag, i, o.FallbackBlocks, p.FallbackBlocks)
				}
				if math.Float64bits(o.SigmaErr) != math.Float64bits(p.SigmaErr) || opts.ErrorProbe != (o.SigmaErr > 0) {
					t.Errorf("%s iter %d: probe deviation %g vs %g (probe on: %v)", tag, i, o.SigmaErr, p.SigmaErr, opts.ErrorProbe)
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
// observable reduction, and with the mixed-precision error probe, whose
// words ride it too — and per-iteration byte telemetry that sums to what
// the comm layer measured. A single rank exchanges nothing (every
// transfer is a self-send).
func commAccounting(t *testing.T, s sched) {
	const iters = 3
	dev := testDevice(t)
	for _, c := range []struct {
		tag   string
		hook  func(IterStats) error
		probe bool
	}{
		{"hook=false", nil, false},
		{"hook=true", func(IterStats) error { return nil }, false},
		{"probe", nil, true},
	} {
		opts := s.forced(4, iters)
		opts.Progress = c.hook
		if c.probe {
			opts.Precision, opts.ErrorProbe = PrecisionMixed, true
		}
		tag := c.tag
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
// truncated at the iteration the hook saw. The result is the last valid
// iteration's: its observables equal those of a run capped there, though
// the discarded iteration ran in a re-armed slot (at depth 2 iteration 3
// reuses iteration 1's).
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
	capped := mustRun(t, "capped", s.forced(4, 2))
	if !reflect.DeepEqual(res.Obs, capped.Obs) {
		t.Errorf("stopped run's observables differ from the run capped at its last valid iteration:\n got %+v\nwant %+v", res.Obs, capped.Obs)
	}
}

// TestFinalState: a one-rank run hands its Σ≷/Π≷ over after its last
// reported iteration; a wider world, where no rank holds the whole state,
// and a stopped run, whose discarded iteration has already mixed, hand
// over nothing.
func TestFinalState(t *testing.T) {
	one := mustRun(t, "P=1", sched{Schedule: ScheduleOverlap, workers: 2}.forced(1, 2))
	if one.Final == nil || one.Final.SigL == nil || one.Final.PiG == nil {
		t.Fatal("one-rank run handed over no final state")
	}
	if two := mustRun(t, "P=2", sched{Schedule: SchedulePhases}.forced(2, 2)); two.Final != nil {
		t.Error("a two-rank run handed over a final state")
	}
	opts := sched{Schedule: ScheduleOverlap, workers: 2}.forced(1, 8)
	opts.Progress = func(IterStats) error { return errors.New("enough") }
	if res, err := Run(testDevice(t), opts); err == nil || res.Final != nil {
		t.Errorf("stopped one-rank run: err %v, final state %v; want an error and none", err, res.Final)
	}
}

func TestStopRequest(t *testing.T)         { forEach(t, isPhases, stopRequest) }
func TestOverlapStopRequest(t *testing.T)  { forEach(t, isOverlap, stopRequest) }
func TestPipelineStopRequest(t *testing.T) { forEach(t, isPipeline, stopRequest) }

// converged lets the loop terminate on its own tolerance: the fence must
// discard any speculated iterations past the converged one, keep the
// temperature accumulators at the converged iteration, and report the
// one-rank run's converged state — the phases row's bit for bit. It also
// covers NoCache mode.
func converged(t *testing.T, s sched) {
	dev := testDevice(t)
	seq, err := Run(dev, Options{Ranks: 1})
	if err != nil {
		t.Fatalf("one rank: %v", err)
	}
	obs := &seq.Obs
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

// graphShape pins one graph node per grid point: a traced run records,
// per rank, one rgf/* task per owned point and iteration and no bc/*
// task — the point solve looks its own boundaries up — and each rank
// decimates exactly as often as the graph with a separate boundary node
// per point did (the counts below were taken from that graph): two
// contacts per owned point, once.
func graphShape(t *testing.T, s sched) {
	const iters = 3
	for _, c := range []struct {
		ranks      int
		bcComputes []int
	}{{1, []int{90}}, {2, []int{46, 44}}} {
		opts := s.forced(c.ranks, iters)
		trc := obs.NewTracer()
		opts.Tracer = trc
		res := mustRun(t, fmt.Sprint("P=", c.ranks), opts)
		tasks := make([]map[string]int, c.ranks)
		for r := range tasks {
			tasks[r] = map[string]int{}
		}
		for _, sp := range trc.Trace().Spans {
			if sp.Cat == "task" && (strings.HasPrefix(sp.Name, "rgf/") || strings.HasPrefix(sp.Name, "bc/")) {
				tasks[sp.Rank][sp.Name]++
			}
		}
		layout := decomp.NewOMENLayout(testDevice(t).P, c.ranks)
		for r := range tasks {
			want := map[string]int{}
			for _, pt := range layout.OwnedPairs(r) {
				want[fmt.Sprintf("rgf/el/%d,%d", pt[0], pt[1])] = iters
			}
			for _, pt := range layout.OwnedPhonon(r) {
				want[fmt.Sprintf("rgf/ph/%d,%d", pt[0], pt[1])] = iters
			}
			if !reflect.DeepEqual(tasks[r], want) {
				t.Errorf("P=%d rank %d: point tasks\n got %v\nwant %v", c.ranks, r, tasks[r], want)
			}
			if got := res.Load[r].BCComputes; got != c.bcComputes[r] {
				t.Errorf("P=%d rank %d: %d decimations, want %d", c.ranks, r, got, c.bcComputes[r])
			}
		}
	}
}

func TestGraphOneNodePerPoint(t *testing.T) { forEach(t, anySchedule, graphShape) }

// TestSingleRankFoldBitwiseMatchesSequential: a one-rank world sweeps and
// folds the same shard through the same negf code as the kit's GFPhase,
// so the first iteration's observables, the LDOS included, agree bit for
// bit — not merely within the 1e-12 reduction-order tolerance — on every
// row.
func TestSingleRankFoldBitwiseMatchesSequential(t *testing.T) {
	seq := negf.New(testDevice(t), negf.DefaultOptions())
	if err := seq.GFPhase(); err != nil {
		t.Fatal(err)
	}
	want := seq.Obs
	forEach(t, anySchedule, func(t *testing.T, s sched) {
		if res := mustRun(t, "P=1", s.forced(1, 1)); !reflect.DeepEqual(res.Obs, want) {
			t.Errorf("observables differ from the sequential GF phase:\n got %+v\nwant %+v", res.Obs, want)
		}
	})
}

// TestLDOSAtEveryRankCount: the epilogue reduces every rank's share of
// the LDOS to rank 0 beside the phonon spectra, so a distributed run
// reports the one-rank LDOS up to the reduction order.
func TestLDOSAtEveryRankCount(t *testing.T) {
	ref := mustRun(t, "P=1", sched{Schedule: SchedulePhases}.forced(1, 2)).Obs.LDOS
	p := testDevice(t).P
	if len(ref) != p.Bnum || len(ref[0]) != p.NE {
		t.Fatalf("one-rank LDOS is %d×%d, want %d×%d", len(ref), len(ref[0]), p.Bnum, p.NE)
	}
	for _, ranks := range []int{2, 4} {
		got := mustRun(t, fmt.Sprint("P=", ranks), sched{Schedule: SchedulePhases}.forced(ranks, 2)).Obs.LDOS
		if len(got) != len(ref) {
			t.Fatalf("P=%d: LDOS has %d slabs, want %d", ranks, len(got), len(ref))
		}
		for i := range ref {
			for n := range ref[i] {
				if e := relErr(got[i][n], ref[i][n]); e > 1e-12 {
					t.Errorf("P=%d LDOS[%d][%d] = %.17g, one rank %.17g (rel %.3g)", ranks, i, n, got[i][n], ref[i][n], e)
				}
			}
		}
	}
}

// TestSingleZeroTileField checks Validate infers the missing tile count.
func TestSingleZeroTileField(t *testing.T) {
	dev := testDevice(t)
	opts := Options{Ranks: 2}
	opts.Ta, opts.TE = 2, 0 // infer TE = 1
	opts.MaxIter = 2
	opts.Tol = 1e-300
	if _, err := Run(dev, opts); err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("Ta=2, TE=0 should infer TE=1: %v", err)
	}
	opts = Options{Ranks: 3}
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
		"NaN Mixing":  {Ranks: 2, Loop: negf.Loop{Mixing: math.NaN()}},
		"+Inf Mixing": {Ranks: 2, Loop: negf.Loop{Mixing: math.Inf(1)}},
		"NaN Tol":     {Ranks: 2, Loop: negf.Loop{Tol: math.NaN()}},
		"+Inf Tol":    {Ranks: 2, Loop: negf.Loop{Tol: math.Inf(1)}},
		"-Inf Tol":    {Ranks: 2, Loop: negf.Loop{Tol: math.Inf(-1)}},
		// The whole-state knobs need the whole state on one rank.
		"Kernel at P=2":   {Ranks: 2, Loop: negf.Loop{Kernel: sse.OMEN{}}},
		"Anderson at P=2": {Ranks: 2, Loop: negf.Loop{Anderson: true}},
		"Warm at P=2":     {Ranks: 2, Loop: negf.Loop{Warm: &negf.SigmaState{}}},
		// A kernel replaces the precision's tile: it would displace the
		// mixed tile and leave the probe at 0.
		"Kernel with mixed":      {Ranks: 1, Precision: PrecisionMixed, Loop: negf.Loop{Kernel: sse.OMEN{}}},
		"Kernel with ErrorProbe": {Ranks: 1, Precision: PrecisionMixed, ErrorProbe: true, Loop: negf.Loop{Kernel: sse.OMEN{}}},
	} {
		if _, err := o.Validate(); err == nil {
			t.Errorf("%s must be rejected", name)
		}
	}
	if _, err := (Options{Ranks: 1, Loop: negf.Loop{Kernel: sse.OMEN{}, Anderson: true, Warm: &negf.SigmaState{}}}).Validate(); err != nil {
		t.Errorf("the whole-state knobs are legal at one rank: %v", err)
	}
	// The warm state's shapes are checked against the device before any
	// rank starts: a mismatched state would be truncated by the seed copy.
	dev := testDevice(t)
	p := dev.P
	p.NE++
	ps := negf.NewPointSolver(device.MustBuild(p), 0)
	warm := &negf.SigmaState{SigL: ps.SigL, SigG: ps.SigG, PiL: ps.PiL, PiG: ps.PiG}
	if _, err := Run(dev, Options{Ranks: 1, Loop: negf.Loop{Warm: warm, MaxIter: 1}}); err == nil || !strings.Contains(err.Error(), "does not match device") {
		t.Errorf("a warm state of another device must be refused, got %v", err)
	}

	o, err := (Options{Ranks: 2}).Validate()
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
		l := negf.Loop{Mixing: c.mixing, MaxIter: c.maxIter, Tol: c.tol}
		seq := negf.New(dev, l).Opts
		par, err := (Options{Loop: l, Ranks: 2}).Validate()
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
// error probe, which every window depth accepts.
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
		Precision: PrecisionMixed, ErrorProbe: true}).Validate(); err != nil {
		t.Errorf("ErrorProbe under SchedulePipeline at the default depth must be accepted: %v", err)
	}
	if _, err := (Options{Ranks: 2, Schedule: SchedulePipeline, PipelineDepth: 1,
		Precision: PrecisionMixed, ErrorProbe: true}).Validate(); err != nil {
		t.Errorf("ErrorProbe in a depth-1 window must be accepted: %v", err)
	}
	// FP64 silently clears the probe, so the combination is not an error
	// there.
	if o, err := (Options{Ranks: 2, Schedule: SchedulePipeline, ErrorProbe: true}).Validate(); err != nil || o.ErrorProbe {
		t.Errorf("FP64 clears the probe: %+v, %v", o.ErrorProbe, err)
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

// TestTracedRowsAreTheSpanRecord: a row's timings and a traced run's
// node spans come from one record, the executor's, placed on the trace
// clock by one offset per window. So on rank 0 every node span lies inside
// its window, ComputeNs + CommNs of each row is exactly the summed
// durations of its iteration's node spans, conv excluded, and WallNs runs
// from the window's start (or the previous conv's) to its conv's.
func TestTracedRowsAreTheSpanRecord(t *testing.T) {
	for _, s := range []sched{{Schedule: SchedulePhases}, {ScheduleOverlap, 2, 0}, {SchedulePipeline, 2, 2}} {
		t.Run(s.String(), func(t *testing.T) {
			opts := s.forced(2, 4)
			trc := obs.NewTracer()
			opts.Tracer = trc
			rows := mustRun(t, s.String(), opts).IterTrace
			depth := max(1, s.depth)
			type window struct {
				obs.Span
				nodeNs int64   // Σ durations of the non-conv node spans
				convs  []int64 // conv starts, in order
			}
			var wins []*window
			spans := trc.Trace().Spans // sorted by start: a window precedes its nodes
			for _, sp := range spans {
				if sp.Rank == 0 && sp.Name == "window" {
					wins = append(wins, &window{Span: sp})
				}
			}
			if len(wins) != len(rows)/depth {
				t.Fatalf("%d windows for %d rows at depth %d", len(wins), len(rows), depth)
			}
			for _, sp := range spans {
				switch sp.Cat {
				case "task", "sse", "reduce", "exchange":
				default:
					continue
				}
				if sp.Rank != 0 {
					continue
				}
				i := slices.IndexFunc(wins, func(w *window) bool {
					return w.Start <= sp.Start && sp.Start+sp.Dur <= w.Start+w.Dur
				})
				switch {
				case i < 0:
					t.Fatalf("node span %s [%d, +%d] lies in no window", sp.Name, sp.Start, sp.Dur)
				case sp.Name == "conv":
					wins[i].convs = append(wins[i].convs, sp.Start)
				default:
					wins[i].nodeNs += sp.Dur
				}
			}
			for i, w := range wins {
				var nodeNs int64
				last := w.Start
				for k, row := range rows[i*depth : (i+1)*depth] {
					nodeNs += row.ComputeNs + row.CommNs
					if want := w.convs[k] - last; row.WallNs != want {
						t.Errorf("iteration %d: WallNs %d, the record says %d", row.Iter, row.WallNs, want)
					}
					last = w.convs[k]
				}
				if nodeNs != w.nodeNs {
					t.Errorf("window %d: rows sum ComputeNs + CommNs to %d ns, its node spans to %d ns", i, nodeNs, w.nodeNs)
				}
			}
		})
	}
}

// TestPointScratchIsTheNodesWorker: a rank's point solves run on the
// scratch of the executor worker that runs their node, so a run at
// Workers = W never holds more than W scratches. A solve's bc and rgf
// spans carry the lane of its scratch (worker w's is w+1), and the rgf/*
// task enclosing them carries the executor's worker (lane 100+w, or 0 on
// a one-worker pool): the two must name the same worker.
func TestPointScratchIsTheNodesWorker(t *testing.T) {
	for _, s := range []sched{{Schedule: SchedulePhases}, {ScheduleOverlap, 2, 0}, {SchedulePipeline, 4, 2}} {
		t.Run(s.String(), func(t *testing.T) {
			opts := s.forced(2, 3)
			trc := obs.NewTracer()
			opts.Tracer = trc
			mustRun(t, s.String(), opts)
			workers, lane := max(1, s.workers), 100
			if workers == 1 {
				lane = 0
			}
			spans := trc.Trace().Spans
			solves := 0
			for _, sp := range spans {
				if sp.Cat != "bc" && sp.Cat != "rgf" {
					continue
				}
				solves++
				w := sp.Track - 1
				if w < 0 || w >= workers {
					t.Fatalf("rank %d %s (%d, %d) on scratch lane %d: a %d-worker pool has lanes 1..%d",
						sp.Rank, sp.Name, sp.I, sp.J, sp.Track, workers, workers)
				}
				species := sp.Name[strings.IndexByte(sp.Name, '/')+1:]
				task := fmt.Sprintf("rgf/%s/%d,%d", species, sp.I, sp.J)
				i := slices.IndexFunc(spans, func(n obs.Span) bool {
					return n.Cat == "task" && n.Rank == sp.Rank && n.Name == task &&
						n.Start <= sp.Start && sp.Start+sp.Dur <= n.Start+n.Dur
				})
				if i < 0 {
					t.Fatalf("rank %d %s (%d, %d): no %s task encloses it", sp.Rank, sp.Name, sp.I, sp.J, task)
				}
				if got := spans[i].Track - lane; got != w {
					t.Errorf("rank %d %s (%d, %d) solved on worker %d's scratch inside a task on worker %d",
						sp.Rank, sp.Name, sp.I, sp.J, w, got)
				}
			}
			if solves == 0 {
				t.Fatal("traced run recorded no bc or rgf span")
			}
		})
	}
}

func ExampleSchedule_String() {
	fmt.Println(SchedulePhases, ScheduleOverlap, SchedulePipeline)
	// Output: phases overlap pipeline
}
