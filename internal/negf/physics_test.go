package negf

import (
	"errors"
	"math"
	"testing"

	"repro/internal/device"
)

// TestScatteringReducesBallisticCurrent: electron-phonon scattering opens
// a backscattering channel; the self-consistent current must not exceed
// the coherent (ballistic) value.
func TestScatteringReducesBallisticCurrent(t *testing.T) {
	p := testParams()
	p.Coupling = 0.15
	dev := device.MustBuild(p)

	sb := New(dev, DefaultOptions())
	if err := sb.GFPhase(); err != nil {
		t.Fatal(err)
	}
	ballisticI := sb.Obs.CurrentL

	ss := New(dev, DefaultOptions())
	if _, err := ss.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	scatteredI := ss.Obs.CurrentL
	if scatteredI > ballisticI*1.02 {
		t.Fatalf("scattering should not amplify the current: %g vs ballistic %g",
			scatteredI, ballisticI)
	}
}

// TestHeatingGrowsWithBias: higher Vds dissipates more power and heats
// the lattice further.
func TestHeatingGrowsWithBias(t *testing.T) {
	maxTemp := func(vds float64) float64 {
		p := testParams()
		p.Coupling = 0.12
		p.Vds = vds
		dev := device.MustBuild(p)
		s := New(dev, DefaultOptions())
		if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		var mx float64
		for _, temp := range s.Obs.SlabTemperature(dev) {
			mx = math.Max(mx, temp)
		}
		return mx
	}
	low := maxTemp(0.15)
	high := maxTemp(0.40)
	if high <= low {
		t.Fatalf("hot spot should grow with bias: %g K at 0.15 V vs %g K at 0.4 V", low, high)
	}
}

// TestHeatingGrowsWithCoupling: stronger electron-phonon coupling means
// more Joule heating.
func TestHeatingGrowsWithCoupling(t *testing.T) {
	maxTemp := func(c float64) float64 {
		p := testParams()
		p.Coupling = c
		dev := device.MustBuild(p)
		s := New(dev, DefaultOptions())
		if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		var mx float64
		for _, temp := range s.Obs.SlabTemperature(dev) {
			mx = math.Max(mx, temp)
		}
		return mx
	}
	if w, s := maxTemp(0.05), maxTemp(0.15); s <= w {
		t.Fatalf("heating should grow with coupling: %g K vs %g K", w, s)
	}
}

// TestZeroBiasNoHeating: at equilibrium there is no Joule heating even
// with strong coupling — the lattice stays at the contact temperature.
func TestZeroBiasNoHeating(t *testing.T) {
	p := testParams()
	p.Coupling = 0.15
	p.Vds = 0
	dev := device.MustBuild(p)
	s := New(dev, DefaultOptions())
	if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	for i, temp := range s.Obs.SlabTemperature(dev) {
		if math.Abs(temp-p.TC) > 5 {
			t.Fatalf("slab %d at %g K without bias (contacts %g K)", i, temp, p.TC)
		}
	}
	// And the total dissipated power is ~0.
	var tot float64
	for _, pw := range s.Obs.DissipatedPower {
		tot += pw
	}
	scale := math.Abs(s.Obs.ElectronEnergyLoss) + 1e-12
	if math.Abs(tot) > 100*scale {
		t.Fatalf("equilibrium dissipated power %g should vanish", tot)
	}
}

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

// TestPhononHeatFlowsFromHotSpot: after self-heating, the phonon energy
// current flows outward from the hot spot — negative (leftward) on the
// source side and positive (rightward) on the drain side.
func TestPhononHeatFlowsFromHotSpot(t *testing.T) {
	p := testParams()
	p.Coupling = 0.15
	dev := device.MustBuild(p)
	s := New(dev, DefaultOptions())
	if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	jq := s.Obs.PhononInterfaceEnergy
	first, last := jq[0], jq[len(jq)-1]
	if !(first < 0 && last > 0) {
		t.Fatalf("heat should flow outward from the channel: JQ = %v", jq)
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

// TestEnergyBalanceImprovesWithWeakCoupling: the SCBA conservation residue
// shrinks as the scattering becomes a small perturbation.
func TestEnergyBalanceImprovesWithWeakCoupling(t *testing.T) {
	residue := func(c float64) float64 {
		p := testParams()
		p.Coupling = c
		dev := device.MustBuild(p)
		s := New(dev, DefaultOptions())
		if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		re, rp := s.Obs.ElectronEnergyLoss, s.Obs.PhononEnergyGain
		return math.Abs(re-rp) / math.Max(math.Abs(re), math.Abs(rp))
	}
	weak := residue(0.04)
	if weak > 0.25 {
		t.Fatalf("weak-coupling energy balance residue %g too large", weak)
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
