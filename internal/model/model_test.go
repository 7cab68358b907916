package model

import (
	"math"
	"testing"

	"repro/internal/device"
)

func TestRooflineClassification(t *testing.T) {
	// The paper's "Large" structure: 3,072-wide RGF blocks, Norb = 12.
	pts := Roofline(device.Params{Na: 10240, Bnum: 40, Norb: 12})
	byName := map[string]RooflinePoint{}
	for _, p := range pts {
		byName[p.Kernel] = p
	}
	if byName["RGF"].Bound != "compute" {
		t.Fatalf("RGF must be compute-bound, got %+v", byName["RGF"])
	}
	if byName["SSE-64"].Bound != "memory" {
		t.Fatalf("SSE-64 must be memory-bound, got %+v", byName["SSE-64"])
	}
	if byName["SSE-16"].Bound != "memory" {
		t.Fatalf("SSE-16 must remain memory-bound, got %+v", byName["SSE-16"])
	}
	// SSE-16 doubles the operational intensity of SSE-64.
	if math.Abs(byName["SSE-16"].Intensity/byName["SSE-64"].Intensity-2) > 1e-9 {
		t.Fatal("fp16 should double the flop/byte intensity")
	}
	// Achieved never exceeds attainable.
	for _, p := range pts {
		if p.Achieved > p.Attainable*1.05 {
			t.Fatalf("%s achieves above its roofline", p.Kernel)
		}
	}
}
