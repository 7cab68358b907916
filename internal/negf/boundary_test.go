package negf

import (
	"testing"

	"repro/internal/bc"
	"repro/internal/device"
)

// TestWarmBCSolveMatchesCold: a point solve looks its boundaries up
// where it runs, so the first solve of a point decimates both contacts
// into the cache and the next one (a) hits them instead of recomputing
// and (b) produces bitwise the results of a cold solver.
func TestWarmBCSolveMatchesCold(t *testing.T) {
	p := device.TestParams(9, 3, 2)
	p.NE = 4
	p.Nomega = 2
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	h := dev.Hamiltonian(0)
	phi := dev.Dynamical(0)

	warm := NewPointSolver(dev, bc.CacheBC)
	for _, want := range []struct{ hits, misses int }{{0, 4}, {4, 4}} {
		if _, err := warm.SolveElectronPoint(h, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := warm.SolvePhononPoint(phi, 0, 1); err != nil {
			t.Fatal(err)
		}
		if hits, misses := warm.BC.Stats(); hits != want.hits || misses != want.misses {
			t.Fatalf("hits=%d misses=%d, want %d/%d", hits, misses, want.hits, want.misses)
		}
	}

	cold := NewPointSolver(dev, bc.CacheBC)
	rw, err := warm.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rw.CurrentL != rc.CurrentL || rw.CurrentR != rc.CurrentR {
		t.Fatalf("warmed electron solve differs: %v vs %v", rw.CurrentL, rc.CurrentL)
	}
	pw, err := warm.SolvePhononPoint(phi, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := cold.SolvePhononPoint(phi, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pw.EnergyContactL != pc.EnergyContactL {
		t.Fatalf("warmed phonon solve differs: %v vs %v", pw.EnergyContactL, pc.EnergyContactL)
	}
}
