package qt

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentStartsBitIdentical is the solver-slot-pool invariant the
// qtd server multiplexes on: N simulations running concurrently in one
// process must leak no goroutines and produce bit-identical fp64
// currents to the same specs solved serially. Run under -race in CI.
func TestConcurrentStartsBitIdentical(t *testing.T) {
	opts := func() []Option { return []Option{WithMaxIterations(4), WithTolerance(1e-300)} }
	// A mix of sequential points (different biases → different answers)
	// and one distributed configuration sharing the process.
	points := []struct {
		bias  float64
		extra []Option
	}{
		{0.10, nil},
		{0.20, nil},
		{0.30, nil},
		{0.30, []Option{WithRanks(2)}},
		{0.40, []Option{WithPrecision(Mixed)}},
	}

	serial := make([]float64, len(points))
	for i, pt := range points {
		_, res := solve(t, smallSpec(), append(append(opts(), WithBias(pt.bias)), pt.extra...)...)
		serial[i] = res.Current
	}

	before := runtime.NumGoroutine()
	const rounds = 3 // each spec solved concurrently with itself and the others
	results := make([][]float64, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		results[r] = make([]float64, len(points))
		for i, pt := range points {
			wg.Add(1)
			go func(r, i int, bias float64, extra []Option) {
				defer wg.Done()
				sim, err := New(smallSpec(), append(append(opts(), WithBias(bias)), extra...)...)
				if err != nil {
					t.Error(err)
					return
				}
				run, err := sim.Start(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				res, err := run.Wait()
				if err != nil {
					t.Error(err)
					return
				}
				results[r][i] = res.Current
			}(r, i, pt.bias, pt.extra)
		}
	}
	wg.Wait()

	for r := range results {
		for i := range results[r] {
			if math.Float64bits(results[r][i]) != math.Float64bits(serial[i]) {
				t.Errorf("round %d point %d: concurrent current %v != serial %v (not bit-identical)",
					r, i, results[r][i], serial[i])
			}
		}
	}

	waitForGoroutines(t, before)
}

// TestConcurrentSweeps runs whole Sweep grids concurrently with each
// other and checks the grid results match a serial execution bitwise.
func TestConcurrentSweeps(t *testing.T) {
	grid := func() Sweep {
		return Sweep{
			Spec:    smallSpec(),
			Options: []Option{WithMaxIterations(3), WithTolerance(1e-300)},
			Bias:    []float64{0.1, 0.3},
			Ranks:   []int{0, 2},
		}
	}
	want, err := grid().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	const sweeps = 3
	got := make([][]SweepPoint, sweeps)
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pts, err := grid().Run(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = pts
		}(i)
	}
	wg.Wait()

	for i := range got {
		if len(got[i]) != len(want) {
			t.Fatalf("sweep %d returned %d points, want %d", i, len(got[i]), len(want))
		}
		for j := range got[i] {
			g, w := got[i][j].Result.Current, want[j].Result.Current
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("sweep %d point %d: current %v != serial %v (not bit-identical)", i, j, g, w)
			}
		}
	}

	waitForGoroutines(t, before)
}

// waitForGoroutines asserts the process drains back to (about) the
// pre-test goroutine count — no leaked solver, rank, or stream goroutines.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestConcurrentPlansStayPerRun: a run's plan is (schedule, workers,
// depth) on its own options and nothing else — resolving one run's plan
// writes no process-wide state — so an auto-planned simulation built and
// solved next to a hand-planned one leaves each with its own PlanString
// and with currents bit-identical to the same plan solved alone. Run under
// -race in CI.
func TestConcurrentPlansStayPerRun(t *testing.T) {
	common := func(extra ...Option) []Option {
		return append([]Option{WithRanks(2), WithMaxIterations(3), WithTolerance(1e-300)}, extra...)
	}
	hand := func() []Option { return common(WithSchedule(Pipeline), WithPipelineDepth(2), WithWorkers(2)) }
	const handPlan = "pipeline w=2 d=2"
	_, handSolo := solve(t, smallSpec(), hand()...)

	const pairs = 2
	type outcome struct {
		sim *Simulation
		res *Result
	}
	var (
		wg           sync.WaitGroup
		autos, hands [pairs]outcome
	)
	start := func(out *outcome, opts []Option) {
		defer wg.Done()
		sim, err := New(smallSpec(), opts...) // the auto plan probes here, concurrently
		if err != nil {
			t.Error(err)
			return
		}
		run, err := sim.Start(context.Background())
		if err != nil {
			t.Error(err)
			return
		}
		res, err := run.Wait()
		if err != nil {
			t.Error(err)
			return
		}
		*out = outcome{sim, res}
	}
	for i := 0; i < pairs; i++ {
		wg.Add(2)
		go start(&autos[i], common(WithAutoPlan()))
		go start(&hands[i], hand())
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i := 0; i < pairs; i++ {
		h, a := hands[i], autos[i]
		if got := h.sim.PlanString(); got != handPlan || h.res.Trace[0].Plan != handPlan {
			t.Errorf("hand-planned run %d reports plan %q (row %q), want %q", i, got, h.res.Trace[0].Plan, handPlan)
		}
		if rc := h.sim.Config(); rc.AutoPlan {
			t.Errorf("hand-planned run %d picked up auto_plan: %+v", i, rc)
		}
		if math.Float64bits(h.res.Current) != math.Float64bits(handSolo.Current) {
			t.Errorf("hand-planned run %d: concurrent current %v != solo %v", i, h.res.Current, handSolo.Current)
		}

		plan := a.sim.PlanString()
		if !strings.HasSuffix(plan, " [auto]") || strings.Contains(plan, "gemm") || a.res.Trace[0].Plan != plan {
			t.Errorf("auto-planned run %d reports plan %q (row %q)", i, plan, a.res.Trace[0].Plan)
		}
		// Its solo twin: the same resolved plan, rebuilt without probing.
		solo, err := NewFromConfig(a.sim.Config())
		if err != nil {
			t.Fatal(err)
		}
		if solo.PlanString() != plan {
			t.Errorf("auto-planned run %d: rebuilt plan %q != %q", i, solo.PlanString(), plan)
		}
		run, err := solo.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		soloRes, err := run.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.res.Current) != math.Float64bits(soloRes.Current) {
			t.Errorf("auto-planned run %d (%s): concurrent current %v != solo %v", i, plan, a.res.Current, soloRes.Current)
		}
	}
}
