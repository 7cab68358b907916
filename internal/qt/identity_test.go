package qt

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// The two sides of a RunConfig, by JSON name. Every field is on exactly
// one: the result identity says what is computed, the execution plan how.
var (
	identityFields = []string{"spec", "ranks", "precision", "kernel", "max_iterations", "tolerance",
		"mixing", "no_boundary_cache", "anderson", "tile_a", "tile_e", "error_probe"}
	planFields = []string{"schedule", "workers", "pipeline_depth", "auto_plan", "trace"}
)

// flip changes v to a different value of its kind: a new knob of any kind
// the config holds today can be flipped without touching this test.
func flip(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 3)
	case reflect.Float64:
		v.SetFloat(v.Float()*2 + 0.125)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		flip(t, v.Field(0))
	default:
		t.Fatalf("cannot flip a %s", v.Kind())
	}
}

// TestIdentityClassifiesEveryField walks every JSON field of RunConfig:
// each must be listed on exactly one side, flipping a plan field must
// leave Identity().Key() where it was, and flipping an identity field must
// move it. A knob added later fails here until it picks a side.
func TestIdentityClassifiesEveryField(t *testing.T) {
	side := map[string]string{}
	for _, f := range identityFields {
		side[f] = "identity"
	}
	for _, f := range planFields {
		if side[f] != "" {
			t.Errorf("field %q is on both sides", f)
		}
		side[f] = "plan"
	}

	base, err := Resolve(RunConfig{Spec: smallSpec(), Ranks: 2, Schedule: "pipeline", PipelineDepth: 2, Workers: 2,
		Precision: "mixed", MaxIterations: 5, Tolerance: 1e-7, Mixing: 0.4, TileA: 1, TileE: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Identity().Key()
	typ := reflect.TypeOf(base)
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		seen[name] = true
		rc := base
		flip(t, reflect.ValueOf(&rc).Elem().Field(i))
		moved := rc.Identity().Key() != want
		switch side[name] {
		case "identity":
			if !moved {
				t.Errorf("identity field %q changed and Identity().Key() did not move", name)
			}
		case "plan":
			if moved {
				t.Errorf("plan field %q changed and Identity().Key() moved", name)
			}
			if rc.Key() == base.Key() {
				t.Errorf("plan field %q changed and Key() did not move: Key names the execution", name)
			}
		default:
			t.Errorf("field %q is on neither side: list it in identityFields or planFields", name)
		}
	}
	for name := range side {
		if !seen[name] {
			t.Errorf("listed field %q is not a RunConfig field", name)
		}
	}
}

// TestPlanInvariance is what makes addressing results by identity sound:
// one P=2 device solved under every execution plan — each schedule, both
// pipeline depths, two worker counts, a recorded auto plan, tracing on —
// gives bit-identical currents at every iteration, under fp64 and under
// mixed precision, and so does a run without ranks with and without
// tracing. Every plan shares one Identity().Key().
func TestPlanInvariance(t *testing.T) {
	const iters = 4
	check := func(name string, base RunConfig, plans map[string]RunConfig) {
		t.Helper()
		base.Spec, base.MaxIterations, base.Tolerance = smallSpec(), iters, 1e-300
		refSim, ref := solve(t, base)
		for label, p := range plans {
			p.Spec, p.MaxIterations, p.Tolerance = base.Spec, base.MaxIterations, base.Tolerance
			sim, res := solve(t, p)
			if got, want := sim.Config().Identity().Key(), refSim.Config().Identity().Key(); got != want {
				t.Errorf("%s %s: identity %s, want %s", name, label, got, want)
			}
			if len(res.Trace) != len(ref.Trace) || res.Iterations != ref.Iterations {
				t.Fatalf("%s %s: %d iterations, want %d", name, label, len(res.Trace), len(ref.Trace))
			}
			for i := range res.Trace {
				if math.Float64bits(res.Trace[i].Current) != math.Float64bits(ref.Trace[i].Current) {
					t.Errorf("%s %s iter %d: current %.17g, want %.17g", name, label, i, res.Trace[i].Current, ref.Trace[i].Current)
				}
			}
			if math.Float64bits(res.Current) != math.Float64bits(ref.Current) {
				t.Errorf("%s %s: current %.17g, want %.17g", name, label, res.Current, ref.Current)
			}
		}
	}

	auto, err := NewFromConfig(RunConfig{Spec: smallSpec(), Ranks: 2, AutoPlan: true, MaxIterations: iters, Tolerance: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	recorded := auto.Config()
	check("P=2 fp64", RunConfig{Ranks: 2}, map[string]RunConfig{
		"overlap":         {Ranks: 2, Schedule: "overlap"},
		"pipeline d=2":    {Ranks: 2, Schedule: "pipeline", PipelineDepth: 2},
		"pipeline d=3":    {Ranks: 2, Schedule: "pipeline", PipelineDepth: 3},
		"overlap w=1":     {Ranks: 2, Schedule: "overlap", Workers: 1},
		"overlap w=2":     {Ranks: 2, Schedule: "overlap", Workers: 2},
		"recorded auto":   recorded,
		"phases traced":   {Ranks: 2, Trace: true},
		"pipeline traced": {Ranks: 2, Schedule: "pipeline", PipelineDepth: 3, Workers: 2, Trace: true},
	})
	check("P=2 mixed", RunConfig{Ranks: 2, Precision: "mixed"}, map[string]RunConfig{
		"overlap":      {Ranks: 2, Precision: "mixed", Schedule: "overlap"},
		"pipeline d=3": {Ranks: 2, Precision: "mixed", Schedule: "pipeline", PipelineDepth: 3},
	})
	check("no ranks", RunConfig{}, map[string]RunConfig{
		"traced": {Trace: true},
	})
}
