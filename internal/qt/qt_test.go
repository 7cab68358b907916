package qt

import (
	"context"
	"fmt"
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

// TestOptionValidation drives every case through New and, where the case
// has a wire form, through NewFromConfig: one resolve behind two doors,
// so both must give the same verdict in the same words — and, when they
// accept, the same resolved configuration. A nil wire is a value the wire
// cannot say: an explicit zero, an injected Go value, an out-of-range
// enum.
func TestOptionValidation(t *testing.T) {
	wire := func(rc RunConfig) *RunConfig { return &rc }
	cases := []struct {
		name string
		spec Spec
		opts []Option
		wire *RunConfig // its Spec is filled from spec
		want string     // substring of the error; "" = must succeed
	}{
		{"defaults", Spec{}, nil, wire(RunConfig{}), ""},
		{"indivisible atoms", Spec{Atoms: 25, Slabs: 6}, nil, wire(RunConfig{}), "device"},
		{"zero ranks", Spec{}, []Option{WithRanks(0)}, nil, "WithRanks"},
		{"negative ranks", Spec{}, []Option{WithRanks(-2)}, wire(RunConfig{Ranks: -2}), "WithRanks"},
		{"zero tolerance", Spec{}, []Option{WithTolerance(0)}, nil, "WithTolerance"},
		{"negative tolerance", Spec{}, []Option{WithTolerance(-1e-5)}, wire(RunConfig{Tolerance: -1e-5}), "WithTolerance"},
		// NaN fails every range comparison: accepted, it would panic in
		// Config().Key() (JSON has no NaN) or poison the Σ≷ mix.
		{"NaN tolerance", Spec{}, []Option{WithTolerance(math.NaN())}, wire(RunConfig{Tolerance: math.NaN()}), "WithTolerance"},
		{"infinite tolerance", Spec{}, []Option{WithTolerance(math.Inf(1))}, wire(RunConfig{Tolerance: math.Inf(1)}), "WithTolerance"},
		{"NaN mixing", Spec{}, []Option{WithMixing(math.NaN())}, wire(RunConfig{Mixing: math.NaN()}), "WithMixing"},
		{"infinite mixing", Spec{}, []Option{WithMixing(math.Inf(1))}, wire(RunConfig{Mixing: math.Inf(1)}), "WithMixing"},
		{"zero iterations", Spec{}, []Option{WithMaxIterations(0)}, nil, "WithMaxIterations"},
		// A negative integer knob is refused, not dropped as "absent" and
		// solved as a sequential default run.
		{"negative iterations", Spec{}, []Option{WithMaxIterations(-1)}, wire(RunConfig{MaxIterations: -1}), "WithMaxIterations"},
		{"mixing too large", Spec{}, []Option{WithMixing(1.5)}, wire(RunConfig{Mixing: 1.5}), "WithMixing"},
		{"mixing zero", Spec{}, []Option{WithMixing(0)}, nil, "WithMixing"},
		{"overlap needs ranks", Spec{}, []Option{WithSchedule(Overlap)}, wire(RunConfig{Schedule: "overlap"}), "WithRanks"},
		{"tiles need ranks", Spec{}, []Option{WithTiles(2, 2)}, wire(RunConfig{TileA: 2, TileE: 2}), "WithRanks"},
		{"tiles both zero", Spec{}, []Option{WithRanks(4), WithTiles(0, 0)}, nil, "WithTiles"},
		{"negative tile", Spec{}, []Option{WithRanks(4), WithTiles(-2, 0)}, wire(RunConfig{Ranks: 4, TileA: -2}), "WithTiles"},
		{"workers need ranks", Spec{}, []Option{WithWorkers(2)}, wire(RunConfig{Workers: 2}), "WithRanks"},
		{"workers positive", Spec{}, []Option{WithRanks(2), WithWorkers(0)}, nil, "WithWorkers"},
		{"negative workers", Spec{}, []Option{WithRanks(2), WithSchedule(Overlap), WithWorkers(-1)}, wire(RunConfig{Ranks: 2, Schedule: "overlap", Workers: -1}), "WithWorkers"},
		{"tile split mismatch", Spec{}, []Option{WithRanks(4), WithTiles(3, 2)}, wire(RunConfig{Ranks: 4, TileA: 3, TileE: 2}), "tile split"},
		{"tile inference", Spec{}, []Option{WithRanks(4), WithTiles(2, 0)}, wire(RunConfig{Ranks: 4, TileA: 2}), ""},
		{"baseline distributed", Spec{}, []Option{WithRanks(2), WithKernel(Baseline)}, wire(RunConfig{Ranks: 2, Kernel: "omen"}), "sequential"},
		{"custom kernel distributed", Spec{}, []Option{WithRanks(2), WithSSEKernel(sse.DaCe{})}, nil, "sequential"},
		{"anderson distributed", Spec{}, []Option{WithRanks(2), WithAnderson()}, wire(RunConfig{Ranks: 2, Anderson: true}), "sequential"},
		{"probe needs mixed", Spec{}, []Option{WithRanks(2), WithErrorProbe()}, wire(RunConfig{Ranks: 2, ErrorProbe: true}), "WithErrorProbe"},
		{"probe sequential", Spec{}, []Option{WithPrecision(Mixed), WithErrorProbe()}, wire(RunConfig{Precision: "mixed", ErrorProbe: true}), "WithErrorProbe"},
		{"probe ok", Spec{}, []Option{WithRanks(2), WithPrecision(Mixed), WithErrorProbe()}, wire(RunConfig{Ranks: 2, Precision: "mixed", ErrorProbe: true}), ""},
		{"baseline plus mixed", Spec{}, []Option{WithKernel(Baseline), WithPrecision(Mixed)}, wire(RunConfig{Kernel: "omen", Precision: "mixed"}), "conflicts"},
		{"custom kernel plus mixed", Spec{}, []Option{WithSSEKernel(sse.DaCe{}), WithPrecision(Mixed)}, nil, "WithSSEKernel"},
		{"nil custom kernel", Spec{}, []Option{WithSSEKernel(nil)}, nil, "WithSSEKernel"},
		{"unknown schedule", Spec{}, []Option{WithRanks(2), WithSchedule(Schedule(7))}, nil, "WithSchedule"},
		{"pipeline needs ranks", Spec{}, []Option{WithSchedule(Pipeline)}, wire(RunConfig{Schedule: "pipeline"}), "WithRanks"},
		{"pipeline ok", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline)}, wire(RunConfig{Ranks: 2, Schedule: "pipeline"}), ""},
		{"pipeline with depth", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(3)}, wire(RunConfig{Ranks: 2, Schedule: "pipeline", PipelineDepth: 3}), ""},
		{"depth zero", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(0)}, nil, "WithPipelineDepth"},
		{"depth negative", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(-1)}, wire(RunConfig{Ranks: 2, Schedule: "pipeline", PipelineDepth: -1}), "WithPipelineDepth"},
		{"depth needs ranks", Spec{}, []Option{WithPipelineDepth(2)}, wire(RunConfig{PipelineDepth: 2}), "WithRanks"},
		{"depth needs pipeline", Spec{}, []Option{WithRanks(2), WithPipelineDepth(2)}, wire(RunConfig{Ranks: 2, PipelineDepth: 2}), "WithSchedule(Pipeline)"},
		{"depth under overlap", Spec{}, []Option{WithRanks(2), WithSchedule(Overlap), WithPipelineDepth(2)}, wire(RunConfig{Ranks: 2, Schedule: "overlap", PipelineDepth: 2}), "WithSchedule(Pipeline)"},
		{"pipeline probe fp64", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithErrorProbe()}, wire(RunConfig{Ranks: 2, Schedule: "pipeline", ErrorProbe: true}), "WithErrorProbe"},
		{"pipeline probe mixed", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPrecision(Mixed), WithErrorProbe()}, wire(RunConfig{Ranks: 2, Schedule: "pipeline", Precision: "mixed", ErrorProbe: true}), "WithErrorProbe"},
		{"pipeline depth-2 probe", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(2), WithPrecision(Mixed), WithErrorProbe()}, wire(RunConfig{Ranks: 2, Schedule: "pipeline", PipelineDepth: 2, Precision: "mixed", ErrorProbe: true}), "WithPipelineDepth(1)"},
		{"pipeline depth-1 probe ok", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPipelineDepth(1), WithPrecision(Mixed), WithErrorProbe()}, wire(RunConfig{Ranks: 2, Schedule: "pipeline", PipelineDepth: 1, Precision: "mixed", ErrorProbe: true}), ""},
		{"overlap probe ok", Spec{}, []Option{WithRanks(2), WithSchedule(Overlap), WithPrecision(Mixed), WithErrorProbe()}, wire(RunConfig{Ranks: 2, Schedule: "overlap", Precision: "mixed", ErrorProbe: true}), ""},
		{"pipeline mixed ok", Spec{}, []Option{WithRanks(2), WithSchedule(Pipeline), WithPrecision(Mixed)}, wire(RunConfig{Ranks: 2, Schedule: "pipeline", Precision: "mixed"}), ""},
		{"autoplan needs ranks", Spec{}, []Option{WithAutoPlan()}, wire(RunConfig{AutoPlan: true}), "WithRanks"},
		// Options write wire fields, so a schedule named next to the auto
		// plan is what it is on the wire: a recorded plan, used as given.
		{"autoplan with schedule is a recorded plan", Spec{}, []Option{WithRanks(2), WithAutoPlan(), WithSchedule(Overlap)}, wire(RunConfig{Ranks: 2, AutoPlan: true, Schedule: "overlap"}), ""},
		{"autoplan owns workers", Spec{}, []Option{WithRanks(2), WithAutoPlan(), WithWorkers(2)}, wire(RunConfig{Ranks: 2, AutoPlan: true, Workers: 2}), "WithAutoPlan owns"},
		{"autoplan owns depth", Spec{}, []Option{WithRanks(2), WithAutoPlan(), WithPipelineDepth(2)}, wire(RunConfig{Ranks: 2, AutoPlan: true, PipelineDepth: 2}), "WithSchedule(Pipeline)"},
		{"autoplan no probe", Spec{}, []Option{WithRanks(2), WithAutoPlan(), WithPrecision(Mixed), WithErrorProbe()}, wire(RunConfig{Ranks: 2, AutoPlan: true, Precision: "mixed", ErrorProbe: true}), "WithAutoPlan"},
		{"unknown precision", Spec{}, []Option{WithPrecision(Precision(7))}, nil, "WithPrecision"},
		{"unknown kernel", Spec{}, []Option{WithKernel(Kernel(7))}, nil, "WithKernel"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim, err := New(c.spec, c.opts...)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("expected an error mentioning %q, got nil", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if c.wire == nil {
				return
			}
			rc := *c.wire
			rc.Spec = c.spec
			wsim, werr := NewFromConfig(rc)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("the two doors disagree:\n  New:           %v\n  NewFromConfig: %v", err, werr)
			}
			if err == nil && sim.Config().Key() != wsim.Config().Key() {
				t.Fatalf("the two doors resolve differently:\n  New:           %+v\n  NewFromConfig: %+v", sim.Config(), wsim.Config())
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
