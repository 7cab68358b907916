package qt

import (
	"math"
	"strings"
	"testing"
)

// smallSpec is the fast structure every facade test runs on.
func smallSpec() Spec {
	return Spec{Atoms: 12, Slabs: 3, Orbitals: 2, EnergyPoints: 12, PhononModes: 3}
}

// solve runs one configuration to completion.
func solve(t *testing.T, rc RunConfig, opts ...Option) (*Simulation, *Result) {
	t.Helper()
	return solveOver(t, boundaries, rc, opts...)
}

// TestOptionValidation drives every rule of resolve through
// NewFromConfig, the one door: a rejection names the JSON field a qtd
// client sent (or the Option that carried a value no field can say), and
// never a Go option the wire does not have.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		rc   RunConfig
		opts []Option
		want string // substring of the error; "" = must succeed
	}{
		{"defaults", RunConfig{}, nil, ""},
		{"indivisible atoms", RunConfig{Spec: Spec{Atoms: 25, Slabs: 6}}, nil, "spec: device"},
		{"negative ranks", RunConfig{Ranks: -2}, nil, "ranks: world size"},
		{"negative tolerance", RunConfig{Tolerance: -1e-5}, nil, "tolerance:"},
		// NaN fails every range comparison: accepted, it would panic in
		// Config().Key() (JSON has no NaN) or poison the Σ≷ mix.
		{"NaN tolerance", RunConfig{Tolerance: math.NaN()}, nil, "tolerance:"},
		{"infinite tolerance", RunConfig{Tolerance: math.Inf(1)}, nil, "tolerance:"},
		{"NaN mixing", RunConfig{Mixing: math.NaN()}, nil, "mixing:"},
		{"infinite mixing", RunConfig{Mixing: math.Inf(1)}, nil, "mixing:"},
		// A negative integer knob is refused, not dropped as "absent" and
		// solved as a sequential default run.
		{"negative iterations", RunConfig{MaxIterations: -1}, nil, "max_iterations:"},
		{"mixing too large", RunConfig{Mixing: 1.5}, nil, "mixing:"},
		{"overlap needs ranks", RunConfig{Schedule: "overlap"}, nil, "schedule overlap requires ranks"},
		{"tiles need ranks", RunConfig{TileA: 2, TileE: 2}, nil, "tile_a, tile_e require ranks"},
		{"negative tile", RunConfig{Ranks: 4, TileA: -2}, nil, "tile_a, tile_e: tile counts"},
		{"workers need ranks", RunConfig{Workers: 2}, nil, "workers requires ranks"},
		{"negative workers", RunConfig{Ranks: 2, Schedule: "overlap", Workers: -1}, nil, "workers: need"},
		// Phases is the one-worker order: a pool it would not use is
		// refused, not recorded, reported and hashed.
		{"workers under default phases", RunConfig{Ranks: 2, Workers: 4}, nil, "workers 4 requires schedule overlap or pipeline"},
		{"workers under phases", RunConfig{Ranks: 2, Schedule: "phases", Workers: 2}, nil, "workers 2 requires schedule overlap or pipeline"},
		{"one worker under phases", RunConfig{Ranks: 2, Schedule: "phases", Workers: 1}, nil, ""},
		{"recorded phases plan", RunConfig{Ranks: 2, AutoPlan: true, Schedule: "phases", Workers: 1}, nil, ""},
		{"tile split mismatch", RunConfig{Ranks: 4, TileA: 3, TileE: 2}, nil, "tile_a, tile_e: dist: tile split"},
		{"tile inference", RunConfig{Ranks: 4, TileA: 2}, nil, ""},
		{"baseline distributed", RunConfig{Ranks: 2, Kernel: "omen"}, nil, "kernel omen requires a run without ranks"},
		{"anderson distributed", RunConfig{Ranks: 2, Anderson: true}, nil, "anderson requires a run without ranks"},
		{"probe needs mixed", RunConfig{Ranks: 2, ErrorProbe: true}, nil, "error_probe requires precision mixed"},
		{"probe sequential", RunConfig{Precision: "mixed", ErrorProbe: true}, nil, ""},
		{"probe ok", RunConfig{Ranks: 2, Precision: "mixed", ErrorProbe: true}, nil, ""},
		{"baseline plus mixed", RunConfig{Kernel: "omen", Precision: "mixed"}, nil, "kernel omen conflicts with precision mixed"},
		{"unknown schedule", RunConfig{Ranks: 2, Schedule: "bulk"}, nil, `unknown schedule "bulk"`},
		{"unknown precision", RunConfig{Precision: "half"}, nil, `unknown precision "half"`},
		{"unknown kernel", RunConfig{Kernel: "cuda"}, nil, `unknown kernel "cuda"`},
		{"mixed is a precision, not a kernel", RunConfig{Kernel: "mixed"}, nil, `unknown kernel "mixed"`},
		{"pipeline needs ranks", RunConfig{Schedule: "pipeline"}, nil, "schedule pipeline requires ranks"},
		{"pipeline ok", RunConfig{Ranks: 2, Schedule: "pipeline"}, nil, ""},
		{"pipeline with depth", RunConfig{Ranks: 2, Schedule: "pipeline", PipelineDepth: 3}, nil, ""},
		{"depth negative", RunConfig{Ranks: 2, Schedule: "pipeline", PipelineDepth: -1}, nil, "pipeline_depth: depth"},
		{"depth needs ranks", RunConfig{PipelineDepth: 2}, nil, "pipeline_depth requires ranks"},
		{"depth needs pipeline", RunConfig{Ranks: 2, PipelineDepth: 2}, nil, "pipeline_depth requires schedule pipeline"},
		{"depth under overlap", RunConfig{Ranks: 2, Schedule: "overlap", PipelineDepth: 2}, nil, "pipeline_depth requires schedule pipeline"},
		{"pipeline probe fp64", RunConfig{Ranks: 2, Schedule: "pipeline", ErrorProbe: true}, nil, "error_probe requires precision mixed"},
		{"pipeline probe mixed", RunConfig{Ranks: 2, Schedule: "pipeline", Precision: "mixed", ErrorProbe: true}, nil, ""},
		{"pipeline depth-2 probe", RunConfig{Ranks: 2, Schedule: "pipeline", PipelineDepth: 2, Precision: "mixed", ErrorProbe: true}, nil, ""},
		{"pipeline depth-1 probe ok", RunConfig{Ranks: 2, Schedule: "pipeline", PipelineDepth: 1, Precision: "mixed", ErrorProbe: true}, nil, ""},
		{"overlap probe ok", RunConfig{Ranks: 2, Schedule: "overlap", Precision: "mixed", ErrorProbe: true}, nil, ""},
		{"pipeline mixed ok", RunConfig{Ranks: 2, Schedule: "pipeline", Precision: "mixed"}, nil, ""},
		{"autoplan needs ranks", RunConfig{AutoPlan: true}, nil, "auto_plan requires ranks"},
		// A schedule named next to the auto plan is a recorded plan, used
		// as given.
		{"autoplan with schedule is a recorded plan", RunConfig{Ranks: 2, AutoPlan: true, Schedule: "overlap"}, nil, ""},
		{"autoplan owns workers", RunConfig{Ranks: 2, AutoPlan: true, Workers: 2}, nil, "auto_plan owns workers and pipeline_depth"},
		{"autoplan owns depth", RunConfig{Ranks: 2, AutoPlan: true, PipelineDepth: 2}, nil, "pipeline_depth requires schedule pipeline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewFromConfig(c.rc, c.opts...)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("expected an error mentioning %q, got nil", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q does not mention %q", err, c.want)
			case c.opts == nil && err != nil && strings.Contains(err.Error(), "With"):
				t.Fatalf("a wire-only configuration is refused in terms of a Go option: %v", err)
			}
		})
	}
}

func TestDefaultsProduceRunnableSimulation(t *testing.T) {
	sim, err := NewFromConfig(RunConfig{})
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
	_, res := solve(t, RunConfig{Spec: spec, MaxIterations: 20})
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
	run := func(kernel string) float64 {
		_, res := solve(t, RunConfig{Spec: smallSpec(), Kernel: kernel, MaxIterations: 4, Tolerance: 1e-12})
		return res.Current
	}
	a, b := run("dace"), run("omen")
	if rel := math.Abs(a-b) / math.Abs(a); rel > 1e-9 {
		t.Fatalf("kernel choice changed the physics: %g vs %g", a, b)
	}
}

func TestBoundaryCacheToggle(t *testing.T) {
	_, ra := solve(t, RunConfig{Spec: smallSpec(), MaxIterations: 3})
	_, rb := solve(t, RunConfig{Spec: smallSpec(), MaxIterations: 3, NoBoundaryCache: true})
	if ra.Current != rb.Current {
		t.Fatalf("boundary caching changed the physics: %g vs %g", ra.Current, rb.Current)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	mk := func() float64 {
		_, res := solve(t, RunConfig{Spec: smallSpec(), MaxIterations: 3})
		return res.Current
	}
	if mk() != mk() {
		t.Fatal("same config must reproduce bit-identical results")
	}
}

func TestParsePrecision(t *testing.T) {
	if p, err := parsePrecision("mixed"); err != nil || p != Mixed {
		t.Errorf("parsePrecision(mixed) = %v, %v", p, err)
	}
	if p, err := parsePrecision("fp64"); err != nil || p != FP64 {
		t.Errorf("parsePrecision(fp64) = %v, %v", p, err)
	}
	if _, err := parsePrecision("fp128"); err == nil {
		t.Error("parsePrecision must reject unknown spellings")
	}
}

func TestSpecReportsEffectiveBias(t *testing.T) {
	sim, err := NewFromConfig(RunConfig{Spec: smallSpec()}, WithBias(0.15))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Spec.Bias != 0.15 {
		t.Fatalf("Spec.Bias = %g after WithBias(0.15)", sim.Spec.Bias)
	}
}

func TestSweepRankZeroOverridesBaseRanks(t *testing.T) {
	// A ranks axis over a distributed base: the rank-0 point is the base
	// with ranks set to 0. Left alone, the base's distributed-only knobs
	// make that point invalid, and the rejection names the JSON field.
	base := RunConfig{Spec: smallSpec(), Ranks: 2, Schedule: "overlap", Workers: 2,
		MaxIterations: 2, Tolerance: 1e-300}
	stale := base
	stale.Ranks = 0
	if _, err := NewFromConfig(stale); err == nil || !strings.Contains(err.Error(), "ranks") ||
		strings.Contains(err.Error(), "With") {
		t.Fatalf("rank 0 over a distributed base: err = %v, want a rejection naming ranks", err)
	}

	// Cleared of those knobs, the point runs without ranks, is
	// labelled with what ran, and carries no distributed comm stats; the
	// base itself still runs distributed.
	seq := base
	seq.Ranks, seq.Schedule, seq.Workers = 0, "", 0
	sim, res := solve(t, seq)
	if got := sim.Config().Ranks; got != 0 {
		t.Fatalf("rank-0 point resolved to ranks %d", got)
	}
	if res.Comm != nil {
		t.Error("a point without ranks must not carry distributed comm stats")
	}
	sim, res = solve(t, base)
	if got := sim.Config().Ranks; got != 2 || res.Comm == nil {
		t.Fatalf("distributed point: ranks %d, comm %v", got, res.Comm)
	}
}

func TestWithBiasOverridesZero(t *testing.T) {
	// An explicit zero bias must survive defaulting — the knob the I-V
	// sweeps turn. Without WithBias, Spec.Bias == 0 takes the 0.3 default.
	sim, err := NewFromConfig(RunConfig{Spec: smallSpec()}, WithBias(0))
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
// validation error from NewFromConfig — it used to build, and then panic
// in RunConfig.Key ("not marshalable") on the submit route.
func TestNonFiniteParametersRejected(t *testing.T) {
	for name, tc := range map[string]struct {
		rc   RunConfig
		opts []Option
	}{
		"NaN bias option":  {RunConfig{Spec: smallSpec()}, []Option{WithBias(math.NaN())}},
		"Inf bias option":  {RunConfig{Spec: smallSpec()}, []Option{WithBias(math.Inf(-1))}},
		"NaN bias spec":    {RunConfig{Spec: Spec{Bias: math.NaN()}}, nil},
		"NaN temperature":  {RunConfig{Spec: Spec{Temperature: math.NaN()}}, nil},
		"Inf temperature":  {RunConfig{Spec: Spec{Temperature: math.Inf(1)}}, nil},
		"NaN bias, ranked": {RunConfig{Spec: smallSpec(), Ranks: 2}, []Option{WithBias(math.NaN())}},
	} {
		if sim, err := NewFromConfig(tc.rc, tc.opts...); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("%s: NewFromConfig = %v, %v; want a 'must be finite' error", name, sim, err)
		}
	}
}
