package negf

import (
	"testing"

	"repro/internal/bc"
	"repro/internal/device"
)

// TestPrepareBCMatchesInSolvePath warms the boundary cache through the
// standalone prepare methods and checks the point solves (a) hit the
// cache instead of recomputing and (b) produce bitwise the results of the
// unwarmed path.
func TestPrepareBCMatchesInSolvePath(t *testing.T) {
	p := device.TestParams(9, 3, 2)
	p.NE = 4
	p.Nomega = 2
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}

	cold := NewPointSolver(dev, bc.CacheBC)
	warm := NewPointSolver(dev, bc.CacheBC)
	h := dev.Hamiltonian(0)
	phi := dev.Dynamical(0)

	sh := NewShard(dev, [][2]int{{0, 1}}, [][2]int{{0, 1}})
	if err := warm.PrepareElectronBC(sh, 0); err != nil {
		t.Fatal(err)
	}
	if err := warm.PreparePhononBC(sh, 0); err != nil {
		t.Fatal(err)
	}
	if hits, misses := warm.BC.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("after prepare: hits=%d misses=%d, want 0/4", hits, misses)
	}

	rw, err := warm.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := warm.BC.Stats(); hits != 2 {
		t.Fatalf("electron solve should hit both warmed contacts, hits=%d", hits)
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
	if hits, _ := warm.BC.Stats(); hits != 4 {
		t.Fatalf("phonon solve should hit both warmed contacts, hits=%d", hits)
	}
	if pw.EnergyContactL != pc.EnergyContactL {
		t.Fatalf("warmed phonon solve differs: %v vs %v", pw.EnergyContactL, pc.EnergyContactL)
	}
}
