package main

import (
	"testing"

	"repro/internal/device"
	"repro/internal/negf"
)

// TestBandEdgeInsideGrid: the extracted band-edge profile is a sensible
// energy for every slab and sits below the spectral-current peak.
func TestBandEdgeInsideGrid(t *testing.T) {
	p := device.TestParams(16, 4, 2)
	p.NE = 20
	p.Nomega = 3
	s := negf.New(device.MustBuild(p), negf.DefaultOptions())
	if err := s.GFPhase(); err != nil {
		t.Fatal(err)
	}
	edges := bandEdge(&s.Obs, p, 0.1)
	if len(edges) != p.Bnum {
		t.Fatal("band edge length")
	}
	peak := 0
	for n, j := range s.Obs.SpectralCurrent {
		if j > s.Obs.SpectralCurrent[peak] {
			peak = n
		}
	}
	for i, e := range edges {
		if e < p.Emin || e > p.Energy(p.NE-1) {
			t.Fatalf("band edge %g off-grid", e)
		}
		if e > p.Energy(peak)+0.2 {
			t.Fatalf("slab %d band edge %g above the current-carrying window %g", i, e, p.Energy(peak))
		}
	}
}
