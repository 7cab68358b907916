package qt

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/sse"
)

// smallSpec is the fast structure every facade test runs on.
func smallSpec() Spec {
	return Spec{Atoms: 12, Slabs: 3, Orbitals: 2, EnergyPoints: 12, PhononModes: 3}
}

// solve runs one configuration to completion.
func solve(t *testing.T, spec Spec, opts ...Option) (*Simulation, *Result) {
	t.Helper()
	return solveOver(t, boundaries, spec, opts...)
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		opts []Option
		want string // substring of the error; "" = must succeed
	}{
		{"defaults", Spec{}, nil, ""},
		{"indivisible atoms", Spec{Atoms: 25, Slabs: 6}, nil, "device"},
		{"zero ranks", Spec{}, []Option{WithRanks(0)}, "WithRanks"},
		{"negative ranks", Spec{}, []Option{WithRanks(-2)}, "WithRanks"},
		{"zero tolerance", Spec{}, []Option{WithTolerance(0)}, "WithTolerance"},
		{"negative tolerance", Spec{}, []Option{WithTolerance(-1e-5)}, "WithTolerance"},
		// NaN fails every range comparison: accepted, it would panic in
		// Config().Key() (JSON has no NaN) or poison the Σ≷ mix.
		{"NaN tolerance", Spec{}, []Option{WithTolerance(math.NaN())}, "WithTolerance"},
		{"infinite tolerance", Spec{}, []Option{WithTolerance(math.Inf(1))}, "WithTolerance"},
		{"NaN mixing", Spec{}, []Option{WithMixing(math.NaN())}, "WithMixing"},
		{"infinite mixing", Spec{}, []Option{WithMixing(math.Inf(1))}, "WithMixing"},
		{"zero iterations", Spec{}, []Option{WithMaxIterations(0)}, "WithMaxIterations"},
		{"mixing too large", Spec{}, []Option{WithMixing(1.5)}, "WithMixing"},
		{"mixing zero", Spec{}, []Option{WithMixing(0)}, "WithMixing"},
		{"overlap needs ranks", Spec{}, []Option{WithSchedule(Overlap)}, "WithRanks"},
		{"tiles need ranks", Spec{}, []Option{WithTiles(2, 2)}, "WithRanks"},
		{"workers need ranks", Spec{}, []Option{WithWorkers(2)}, "WithRanks"},
		{"workers positive", Spec{}, []Option{WithRanks(2), WithWorkers(0)}, "WithWorkers"},
		{"tile split mismatch", Spec{}, []Option{WithRanks(4), WithTiles(3, 2)}, "tile split"},
		{"tile inference", Spec{}, []Option{WithRanks(4), WithTiles(2, 0)}, ""},
		{"baseline distributed", Spec{}, []Option{WithRanks(2), WithKernel(Baseline)}, "sequential"},
		{"custom kernel distributed", Spec{}, []Option{WithRanks(2), WithSSEKernel(sse.DaCe{})}, "sequential"},
		{"anderson distributed", Spec{}, []Option{WithRanks(2), WithAnderson()}, "sequential"},
		{"probe needs mixed", Spec{}, []Option{WithRanks(2), WithErrorProbe()}, "WithErrorProbe"},
		{"probe sequential", Spec{}, []Option{WithPrecision(Mixed), WithErrorProbe()}, "WithErrorProbe"},
		{"probe ok", Spec{}, []Option{WithRanks(2), WithPrecision(Mixed), WithErrorProbe()}, ""},
		{"baseline plus mixed", Spec{}, []Option{WithKernel(Baseline), WithPrecision(Mixed)}, "conflicts"},
		{"custom kernel plus mixed", Spec{}, []Option{WithSSEKernel(sse.DaCe{}), WithPrecision(Mixed)}, "WithSSEKernel"},
		{"nil custom kernel", Spec{}, []Option{WithSSEKernel(nil)}, "WithSSEKernel"},
		{"unknown schedule", Spec{}, []Option{WithRanks(2), WithSchedule(Schedule(7))}, "WithSchedule"},
		{"pipeline needs ranks", Spec{}, []Option{WithSchedule(Pipeline)}, "WithRanks"},
		{"pipeline ok", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline)}, ""},
		{"pipeline with depth", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(3)}, ""},
		{"depth zero", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(0)}, "WithPipelineDepth"},
		{"depth negative", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(-1)}, "WithPipelineDepth"},
		{"depth needs ranks", Spec{}, []Option{WithPipelineDepth(2)}, "WithRanks"},
		{"depth needs pipeline", Spec{}, []Option{WithRanks(2), WithPipelineDepth(2)}, "WithSchedule(Pipeline)"},
		{"depth under overlap", Spec{}, []Option{WithRanks(2), WithSchedule(Overlap), WithPipelineDepth(2)}, "WithSchedule(Pipeline)"},
		{"pipeline probe fp64", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithErrorProbe()}, "WithErrorProbe"},
		{"pipeline probe mixed", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPrecision(Mixed), WithErrorProbe()}, "WithErrorProbe"},
		{"pipeline depth-2 probe", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(2), WithPrecision(Mixed), WithErrorProbe()}, "WithPipelineDepth(1)"},
		{"pipeline depth-1 probe ok", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(1), WithPrecision(Mixed), WithErrorProbe()}, ""},
		{"overlap probe ok", Spec{}, []Option{WithRanks(2), WithSchedule(Overlap), WithPrecision(Mixed), WithErrorProbe()}, ""},
		{"pipeline mixed ok", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPrecision(Mixed)}, ""},
		{"autoplan needs ranks", Spec{}, []Option{WithAutoPlan()}, "WithRanks"},
		{"autoplan owns schedule", Spec{}, []Option{WithRanks(2), WithAutoPlan(), WithSchedule(Overlap)}, "WithAutoPlan owns"},
		{"autoplan owns workers", Spec{}, []Option{WithRanks(2), WithAutoPlan(), WithWorkers(2)}, "WithAutoPlan owns"},
		{"autoplan owns depth", Spec{}, []Option{WithRanks(2), WithAutoPlan(), WithPipelineDepth(2)}, "WithSchedule(Pipeline)"},
		{"autoplan no probe", Spec{}, []Option{WithRanks(2), WithAutoPlan(), WithPrecision(Mixed), WithErrorProbe()}, "WithAutoPlan"},
		{"unknown precision", Spec{}, []Option{WithPrecision(Precision(7))}, "WithPrecision"},
		{"unknown kernel", Spec{}, []Option{WithKernel(Kernel(7))}, "WithKernel"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.spec, c.opts...)
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error mentioning %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestDefaultsProduceRunnableSimulation(t *testing.T) {
	sim, err := New(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Spec.Atoms != 24 || sim.Spec.Slabs != 6 {
		t.Fatalf("defaults not applied: %+v", sim.Spec)
	}
	obs, err := sim.Ballistic()
	if err != nil {
		t.Fatal(err)
	}
	if obs.CurrentL <= 0 {
		t.Fatal("default bias should drive current")
	}
}

func TestRunSummarizesPhysics(t *testing.T) {
	spec := Spec{Atoms: 16, Slabs: 4, EnergyPoints: 20, PhononModes: 3, Coupling: 0.12}
	_, res := solve(t, spec, WithMaxIterations(20))
	if !res.Converged {
		t.Fatalf("expected convergence, got %d iterations", res.Iterations)
	}
	if res.Current <= 0 {
		t.Fatal("current should be positive under forward bias")
	}
	if res.MaxTemperature <= 300 {
		t.Fatalf("Joule heating should raise the lattice above 300 K, got %g", res.MaxTemperature)
	}
	if res.HotSpot == 0 || res.HotSpot == spec.Slabs-1 {
		t.Fatalf("hot spot should be interior, got slab %d", res.HotSpot)
	}
	if res.EnergyBalance < 0.5 || res.EnergyBalance > 1.5 {
		t.Fatalf("energy balance %g far from unity", res.EnergyBalance)
	}
	if len(res.Trace) != res.Iterations {
		t.Fatalf("trace has %d rows for %d iterations", len(res.Trace), res.Iterations)
	}
}

func TestKernelChoicesAgree(t *testing.T) {
	run := func(k Kernel) float64 {
		_, res := solve(t, smallSpec(), WithKernel(k),
			WithMaxIterations(4), WithTolerance(1e-12))
		return res.Current
	}
	a, b := run(DataCentric), run(Baseline)
	if rel := math.Abs(a-b) / math.Abs(a); rel > 1e-9 {
		t.Fatalf("kernel choice changed the physics: %g vs %g", a, b)
	}
}

func TestBoundaryCacheToggle(t *testing.T) {
	_, ra := solve(t, smallSpec(), WithMaxIterations(3))
	_, rb := solve(t, smallSpec(), WithMaxIterations(3), WithBoundaryCache(false))
	if ra.Current != rb.Current {
		t.Fatalf("boundary caching changed the physics: %g vs %g", ra.Current, rb.Current)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() float64 {
		_, res := solve(t, smallSpec(), WithMaxIterations(3))
		return res.Current
	}
	if mk() != mk() {
		t.Fatal("same config must reproduce bit-identical results")
	}
}

func TestParsePrecision(t *testing.T) {
	if p, err := ParsePrecision("mixed"); err != nil || p != Mixed {
		t.Errorf("ParsePrecision(mixed) = %v, %v", p, err)
	}
	if p, err := ParsePrecision("fp64"); err != nil || p != FP64 {
		t.Errorf("ParsePrecision(fp64) = %v, %v", p, err)
	}
	if _, err := ParsePrecision("fp128"); err == nil {
		t.Error("ParsePrecision must reject unknown spellings")
	}
}

func TestSpecReportsEffectiveBias(t *testing.T) {
	sim, err := New(smallSpec(), WithBias(0.15))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Spec.Bias != 0.15 {
		t.Fatalf("Spec.Bias = %g after WithBias(0.15)", sim.Spec.Bias)
	}
}

func TestSweepRankZeroOverridesBaseRanks(t *testing.T) {
	// A 0 on the Ranks axis must force the sequential solver even when
	// the base options request a distributed one, and the point must be
	// labelled with what actually ran.
	points, err := Sweep{
		Spec:    smallSpec(),
		Options: []Option{WithRanks(2), WithMaxIterations(2), WithTolerance(1e-300)},
		Ranks:   []int{0},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Ranks != 0 {
		t.Fatalf("expected one sequential point, got %+v", points)
	}
	if points[0].Result.Comm != nil {
		t.Error("a sequential point must not carry distributed comm stats")
	}

	// The override must also drop the distributed-only knobs the base
	// options carry, or the sequential point cannot validate.
	points, err = Sweep{
		Spec: smallSpec(),
		Options: []Option{WithRanks(2), WithSchedule(Overlap), WithWorkers(2),
			WithMaxIterations(2), WithTolerance(1e-300)},
		Ranks: []int{0, 2},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Ranks != 0 || points[1].Ranks != 2 {
		t.Fatalf("expected a sequential and a distributed point, got %+v", points)
	}
}

func TestWithBiasOverridesZero(t *testing.T) {
	// An explicit zero bias must survive defaulting — the knob the I-V
	// sweeps turn. Without WithBias, Spec.Bias == 0 takes the 0.3 default.
	sim, err := New(smallSpec(), WithBias(0))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Device.P.Vds != 0 {
		t.Fatalf("WithBias(0) ended up at Vds=%g", sim.Device.P.Vds)
	}
	obs, err := sim.Ballistic()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obs.CurrentL) > 1e-12 {
		t.Fatalf("zero bias should carry ~zero current, got %g", obs.CurrentL)
	}
}

// TestNonFiniteParametersRejected: a NaN/Inf bias or temperature must be a
// validation error from New — it used to build, and then panic in
// RunConfig.Key ("not marshalable") on the submit route — and a sweep
// carrying one must fail at that point before solving it.
func TestNonFiniteParametersRejected(t *testing.T) {
	for name, tc := range map[string]struct {
		spec Spec
		opts []Option
	}{
		"NaN bias option":  {smallSpec(), []Option{WithBias(math.NaN())}},
		"Inf bias option":  {smallSpec(), []Option{WithBias(math.Inf(-1))}},
		"NaN bias spec":    {Spec{Bias: math.NaN()}, nil},
		"NaN temperature":  {Spec{Temperature: math.NaN()}, nil},
		"Inf temperature":  {Spec{Temperature: math.Inf(1)}, nil},
		"NaN bias, ranked": {smallSpec(), []Option{WithRanks(2), WithBias(math.NaN())}},
	} {
		if sim, err := New(tc.spec, tc.opts...); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("%s: New = %v, %v; want a 'must be finite' error", name, sim, err)
		}
	}

	points, err := Sweep{Spec: smallSpec(), Options: []Option{WithMaxIterations(1)},
		Bias: []float64{math.NaN(), 0.2}}.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "must be finite") || len(points) != 0 {
		t.Errorf("sweep with a NaN bias: %d points, err %v; want no point solved and a 'must be finite' error", len(points), err)
	}
}
