package negf

import (
	"math"
	"testing"

	"repro/internal/device"
)

// TestContactTemperatureSetsLattice: with hotter contacts the equilibrium
// lattice temperature follows.
func TestContactTemperatureSetsLattice(t *testing.T) {
	p := testParams()
	p.Vds = 0
	p.TC = 400
	dev := device.MustBuild(p)
	s := New(dev, DefaultOptions())
	if err := s.GFPhase(); err != nil {
		t.Fatal(err)
	}
	for i, temp := range s.Obs.SlabTemperature(dev) {
		if math.Abs(temp-400) > 5 {
			t.Fatalf("slab %d equilibrated to %g K, contacts at 400 K", i, temp)
		}
	}
}

// TestReverseBiasReversesCurrent: flipping Vds flips the current direction
// with (approximately) the same magnitude for our symmetric-enough device.
func TestReverseBiasReversesCurrent(t *testing.T) {
	p := testParams()
	fw := ballistic(t, p)
	p2 := p
	p2.Vds = -p.Vds
	bw := ballistic(t, p2)
	if fw.Obs.CurrentL <= 0 || bw.Obs.CurrentL >= 0 {
		t.Fatalf("bias reversal should flip the current: %g vs %g",
			fw.Obs.CurrentL, bw.Obs.CurrentL)
	}
}

// TestSpectralCurrentVanishesOutsideWindow: far above MuL and far below
// MuR (beyond thermal tails) no current flows.
func TestSpectralCurrentVanishesOutsideWindow(t *testing.T) {
	s := ballistic(t, testParams())
	p := s.Dev.P
	peak := 0.0
	for _, j := range s.Obs.SpectralCurrent {
		peak = math.Max(peak, math.Abs(j))
	}
	for ie, j := range s.Obs.SpectralCurrent {
		e := p.Energy(ie)
		if e > p.MuL()+0.5 || e < p.MuR()-0.5 {
			if math.Abs(j) > 0.01*peak {
				t.Fatalf("current %g at E=%g eV outside the transport window", j, e)
			}
		}
	}
}

// TestLDOSPositiveAndPopulated: the local density of states is the
// spectral weight −(1/π)·Im tr Gᴿ, non-negative everywhere and carrying
// weight inside the band.
func TestLDOSPositiveAndPopulated(t *testing.T) {
	s := ballistic(t, testParams())
	p := s.Dev.P
	var total float64
	for i, dos := range s.Obs.LDOS {
		if len(dos) != p.NE {
			t.Fatal("LDOS shape wrong")
		}
		for n, v := range dos {
			if v < -1e-9 {
				t.Fatalf("negative LDOS %g at slab %d energy %d", v, i, n)
			}
			total += v
		}
	}
	if total <= 0 {
		t.Fatal("LDOS carries no spectral weight")
	}
}
