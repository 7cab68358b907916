package negf

import (
	"testing"

	"repro/internal/device"
)

// Disorder-ensemble extension of the physics-invariant suite: current
// conservation and the G≷ anti-Hermitian identity are properties of the
// NEGF equations, not of the clean homogeneous device — they must hold
// for every disorder realization. Disorder lives entirely in H (elastic,
// contained in the Hamiltonian), so the documented clean-device bounds
// apply unchanged: the η leak and the SCBA residual set the conservation
// tolerance, and the boundary injections stay exactly anti-Hermitian.

// testProfile is a moderately disordered profile: a band-offset step, a
// gate well, substitutional doping, and bond strain — every mechanism
// the zoo composes, at amplitudes that keep the test structure in the
// same transport regime as the clean device.
func testProfile() *device.Profile {
	return &device.Profile{
		Regions: []device.Region{{From: 2, To: 3, Offset: 0.05}},
		Gates:   []device.Gate{{Center: 1.5, Width: 1.0, Depth: 0.04}},
		Doping:  &device.Doping{Fraction: 0.2, Shift: -0.06},
		Strain:  &device.Strain{Amplitude: 0.03},
	}
}

// disordered builds the test device and lowers one disorder realization
// onto it.
func disordered(t *testing.T, p device.Params, seed uint64) *device.Device {
	t.Helper()
	dev := device.MustBuild(p)
	if err := testProfile().Apply(dev, seed); err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestCurrentConservationDisorderedBallistic: the continuity identity
// must survive every realization — disorder scatters elastically inside
// H, it does not create or absorb carriers.
func TestCurrentConservationDisorderedBallistic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		dev := disordered(t, testParams(), seed)
		s := New(dev, DefaultOptions())
		if err := s.GFPhase(); err != nil {
			t.Fatal(err)
		}
		if r := conservationResidual(&s.Obs); r > ballisticConservTol {
			t.Errorf("seed %d: interface currents deviate by %.3g (tol %g): I_L=%g",
				seed, r, ballisticConservTol, s.Obs.CurrentL)
		}
	}
}

// TestGAntiHermitianDisorderedBallistic: the boundary injections are
// anti-Hermitian regardless of the Hamiltonian they dress, so the
// identity stays at machine rounding for every realization.
func TestGAntiHermitianDisorderedBallistic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		dev := disordered(t, testParams(), seed)
		s := New(dev, DefaultOptions())
		if err := s.GFPhase(); err != nil {
			t.Fatal(err)
		}
		if r := antiHermResidual(s); r > antiHermBallistic {
			t.Errorf("seed %d: ballistic G≷ anti-Hermiticity violated: %.3g (tol %g)",
				seed, r, antiHermBallistic)
		}
	}
}
