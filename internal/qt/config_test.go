package qt

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/device"
)

func TestParseScheduleAndKernel(t *testing.T) {
	schedCases := []struct {
		in   string
		want Schedule
		err  bool
	}{
		{"phases", Phases, false},
		{"", Phases, false},
		{"overlap", Overlap, false},
		{"bulk", Phases, true},
	}
	for _, tc := range schedCases {
		got, err := ParseSchedule(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseSchedule(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
	kernCases := []struct {
		in   string
		want Kernel
		err  bool
	}{
		{"dace", DataCentric, false},
		{"", DataCentric, false},
		{"omen", Baseline, false},
		{"mixed", DataCentric, true}, // mixed is a precision, not a kernel
	}
	for _, tc := range kernCases {
		got, err := ParseKernel(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

// TestRunConfigRoundTrip pins the satellite contract: the resolved
// option set survives Config → JSON → Unmarshal → NewFromConfig → Config
// unchanged, for a representative cell of every solver path.
func TestRunConfigRoundTrip(t *testing.T) {
	cases := map[string][]Option{
		"defaults":   nil,
		"sequential": {WithTolerance(1e-4), WithMaxIterations(7), WithMixing(0.3), WithAnderson(), WithBoundaryCache(false)},
		"baseline":   {WithKernel(Baseline), WithBias(0.1)},
		"distributed": {WithRanks(4), WithSchedule(Overlap), WithWorkers(2),
			WithTiles(2, 2), WithPrecision(Mixed), WithErrorProbe()},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			sim, err := New(smallSpec(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			rc := sim.Config()

			b, err := json.Marshal(rc)
			if err != nil {
				t.Fatal(err)
			}
			var back RunConfig
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rc, back) {
				t.Fatalf("JSON round trip changed the config:\n was %+v\n got %+v", rc, back)
			}

			sim2, err := NewFromConfig(back)
			if err != nil {
				t.Fatal(err)
			}
			rc2 := sim2.Config()
			if !reflect.DeepEqual(rc, rc2) {
				t.Fatalf("NewFromConfig round trip changed the config:\n was %+v\n got %+v", rc, rc2)
			}
			if rc.Key() != rc2.Key() {
				t.Fatalf("round trip changed the key: %s vs %s", rc.Key(), rc2.Key())
			}
		})
	}
}

func TestRunConfigKey(t *testing.T) {
	base := func() *Simulation {
		sim, err := New(smallSpec(), WithRanks(4), WithPrecision(Mixed))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	// Identical resolved configurations share a key, independent of the
	// option order that produced them.
	a := base().Config()
	simB, err := New(smallSpec(), WithPrecision(Mixed), WithRanks(4), WithTiles(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if b := simB.Config(); a.Key() != b.Key() {
		t.Errorf("equivalent configurations hash differently:\n %s\n %s", a.Key(), b.Key())
	}

	// Any knob change must change the key.
	variants := map[string][]Option{
		"ranks":     {WithRanks(2), WithPrecision(Mixed)},
		"precision": {WithRanks(4)},
		"schedule":  {WithRanks(4), WithPrecision(Mixed), WithSchedule(Overlap)},
		"tolerance": {WithRanks(4), WithPrecision(Mixed), WithTolerance(1e-7)},
		"bias":      {WithRanks(4), WithPrecision(Mixed), WithBias(0.17)},
	}
	for name, opts := range variants {
		sim, err := New(smallSpec(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Config().Key() == a.Key() {
			t.Errorf("%s change did not change the key", name)
		}
	}

	// WarmKey ignores exactly the bias and the disorder seed:
	// neighbouring-bias configs share a family, any other change splits
	// it. (The disorder-seed half lives in TestProfileKeys.)
	biasSim, err := New(smallSpec(), WithRanks(4), WithPrecision(Mixed), WithBias(0.17))
	if err != nil {
		t.Fatal(err)
	}
	if a.WarmKey() != biasSim.Config().WarmKey() {
		t.Error("WarmKey differs across bias values")
	}
	tolSim, err := New(smallSpec(), WithRanks(4), WithPrecision(Mixed), WithTolerance(1e-7))
	if err != nil {
		t.Fatal(err)
	}
	if a.WarmKey() == tolSim.Config().WarmKey() {
		t.Error("WarmKey ignores more than the bias")
	}

	// The canonical hash is independent of JSON object key order: a
	// config decoded from reordered JSON hashes identically.
	rc := a
	b, _ := json.Marshal(rc)
	if !strings.HasPrefix(string(b), "{") {
		t.Fatalf("unexpected JSON form %s", b)
	}
	var back RunConfig
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key() != rc.Key() {
		t.Error("key not stable across decode")
	}

	// Spec.Key: default-filled and explicit-default specs coincide.
	if (Spec{}).Key() != (Spec{Atoms: 24, Slabs: 6, Orbitals: 2}).Key() {
		t.Error("Spec.Key does not normalize defaults")
	}
	if (Spec{}).Key() == smallSpec().Key() {
		t.Error("different specs share a key")
	}
}

// TestNonFiniteConfigRejected feeds NaN and ±Inf through every float
// field reachable from a RunConfig — found by reflection, so a field added
// later is covered without touching this test — and requires NewFromConfig
// to return an error. A non-finite value that slipped through would not
// marshal, and RunConfig.Key / Spec.Key on the submit route would panic.
// (The integer knobs follow the same rule — zero is "absent", any other
// value is judged by resolve — and their negative rows sit in
// TestOptionValidation's table, which drives both entry points.)
func TestNonFiniteConfigRejected(t *testing.T) {
	full := func() RunConfig {
		spec := smallSpec()
		spec.Bias, spec.Temperature, spec.Coupling = 0.2, 300, 0.05
		spec.Profile = &device.Profile{
			Regions:   []device.Region{{From: 0, To: 1, Offset: 0.1}},
			Gates:     []device.Gate{{Center: 1, Width: 1, Depth: 0.1}},
			Doping:    &device.Doping{Fraction: 0.1, Shift: -0.05},
			Vacancies: &device.Vacancies{Fraction: 0.1, Shift: 8, BondScale: 0.1},
			Strain:    &device.Strain{Amplitude: 0.02},
		}
		return RunConfig{Spec: spec, Tolerance: 1e-6, Mixing: 0.5}
	}
	if _, err := NewFromConfig(full()); err != nil {
		t.Fatalf("the finite base configuration must build: %v", err)
	}
	// eachFloat visits every float64 under v, depth first.
	var eachFloat func(v reflect.Value, path string, visit func(path string, f reflect.Value))
	eachFloat = func(v reflect.Value, path string, visit func(string, reflect.Value)) {
		switch v.Kind() {
		case reflect.Float64:
			visit(path, v)
		case reflect.Pointer:
			eachFloat(v.Elem(), path, visit)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				eachFloat(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				eachFloat(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
			}
		}
	}
	base, fields := full(), 0
	eachFloat(reflect.ValueOf(&base), "", func(string, reflect.Value) { fields++ })
	if fields < 15 {
		t.Fatalf("reflection walk found only %d float fields", fields)
	}
	for k := 0; k < fields; k++ {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			rc, seen, name := full(), 0, ""
			eachFloat(reflect.ValueOf(&rc), "", func(path string, f reflect.Value) {
				if seen == k {
					f.SetFloat(bad)
					name = path
				}
				seen++
			})
			if sim, err := NewFromConfig(rc); err == nil {
				t.Errorf("%s = %g accepted (resolved config %+v)", name, bad, sim.Config())
			}
		}
	}
}
