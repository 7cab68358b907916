package qt

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/device"
)

// disorderedSpec is smallSpec carrying a full device-zoo profile and a
// disorder seed — one ensemble realization.
func disorderedSpec(seed uint64) Spec {
	s := smallSpec()
	s.Profile = &device.Profile{
		Regions:   []Region{{From: 0, To: 0, Offset: 0.1}},
		Gates:     []Gate{{Center: 1, Width: 1, Depth: 0.1}},
		Doping:    &device.Doping{Fraction: 0.2, Shift: -0.08},
		Strain:    &device.Strain{Amplitude: 0.04},
		Vacancies: &device.Vacancies{Fraction: 0.05},
	}
	s.DisorderSeed = seed
	return s
}

// Region and Gate alias the device types for test brevity.
type (
	Region = device.Region
	Gate   = device.Gate
)

// TestProfileKeys pins the ensemble cache contract: same (profile,
// seed) → identical RunConfig keys; different seeds → distinct keys but
// one WarmKey family; a profile change splits the family.
func TestProfileKeys(t *testing.T) {
	mk := func(spec Spec) RunConfig {
		sim, err := NewFromConfig(RunConfig{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Config()
	}
	a1, a2 := mk(disorderedSpec(11)), mk(disorderedSpec(11))
	b := mk(disorderedSpec(12))
	clean := mk(smallSpec())

	if a1.Key() != a2.Key() {
		t.Error("same (profile, seed) produced distinct keys")
	}
	if a1.Key() == b.Key() {
		t.Error("different disorder seeds share a key")
	}
	if a1.Key() == clean.Key() {
		t.Error("profiled and clean specs share a key")
	}
	if a1.WarmKey() != b.WarmKey() {
		t.Error("sibling realizations do not share a WarmKey family")
	}
	if a1.WarmKey() == clean.WarmKey() {
		t.Error("WarmKey ignores the profile itself, not just the seed")
	}
	deeper := disorderedSpec(11)
	deeper.Profile.Gates[0].Depth = 0.2
	if mk(deeper).WarmKey() == a1.WarmKey() {
		t.Error("a profile change did not split the WarmKey family")
	}
}

// TestProfileRoundTrip: a profiled spec survives Config → JSON →
// NewFromConfig unchanged — the qtd wire path for ensemble members.
func TestProfileRoundTrip(t *testing.T) {
	sim, err := NewFromConfig(RunConfig{Spec: disorderedSpec(5), Tolerance: 1e-4})
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
		t.Fatalf("JSON round trip changed the profiled config:\n was %+v\n got %+v", rc, back)
	}
	sim2, err := NewFromConfig(back)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Key() != sim2.Config().Key() {
		t.Error("profiled config key not stable across the wire round trip")
	}
}

// TestProfileDeviceDeterminism: two simulations of the same realization
// hold bitwise-identical devices (spot-checked through H(kz)).
func TestProfileDeviceDeterminism(t *testing.T) {
	build := func() *Simulation {
		sim, err := NewFromConfig(RunConfig{Spec: disorderedSpec(42)})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	d1, d2 := build().Device, build().Device
	for ikz := 0; ikz < d1.P.Nkz; ikz++ {
		h1, h2 := d1.Hamiltonian(ikz), d2.Hamiltonian(ikz)
		for s := 0; s < d1.P.Bnum; s++ {
			a, b := h1.Diag[s], h2.Diag[s]
			for i := range a.Data {
				if a.Data[i] != b.Data[i] {
					t.Fatalf("H(kz=%d) diag block %d differs between identical realizations", ikz, s)
				}
			}
		}
	}
}

// TestDisorderSeedRequiresProfile: a seed with no profile is a spec
// error, not a silently distinct cache key.
func TestDisorderSeedRequiresProfile(t *testing.T) {
	s := smallSpec()
	s.DisorderSeed = 9
	if _, err := NewFromConfig(RunConfig{Spec: s}); err == nil || !strings.Contains(err.Error(), "disorder_seed") {
		t.Fatalf("NewFromConfig accepted disorder_seed without profile (err = %v)", err)
	}
	if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "disorder_seed") {
		t.Fatalf("Build accepted disorder_seed without profile (err = %v)", err)
	}
}

// TestProfileValidationSurfacesThroughNew: a malformed profile is
// rejected at construction, with the device layer's message intact.
func TestProfileValidationSurfacesThroughNew(t *testing.T) {
	s := smallSpec()
	s.Profile = &device.Profile{Regions: []Region{{From: 0, To: 99, Offset: 1}}}
	if _, err := NewFromConfig(RunConfig{Spec: s}); err == nil || !strings.Contains(err.Error(), "slab range") {
		t.Fatalf("NewFromConfig accepted an out-of-range profile region (err = %v)", err)
	}
}
