package negf

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/device"
)

func testParams() device.Params {
	p := device.TestParams(16, 4, 2)
	p.NE = 20
	p.Nomega = 3
	return p
}

func ballistic(t *testing.T, p device.Params) *Solver {
	t.Helper()
	dev := device.MustBuild(p)
	s := New(dev, DefaultOptions())
	if err := s.GFPhase(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBallisticContactCurrentConservation(t *testing.T) {
	s := ballistic(t, testParams())
	il, ir := s.Obs.CurrentL, s.Obs.CurrentR
	if il <= 0 {
		t.Fatalf("forward bias should drive positive source current, got %g", il)
	}
	if rel := math.Abs(il+ir) / math.Abs(il); rel > 1e-3 {
		t.Fatalf("contact currents not balanced: IL=%g IR=%g (rel %g)", il, ir, rel)
	}
}

func TestBallisticInterfaceCurrentUniform(t *testing.T) {
	// Without scattering, the current through every slab interface must
	// equal the injected contact current (continuity).
	s := ballistic(t, testParams())
	il := s.Obs.CurrentL
	for i, j := range s.Obs.InterfaceCurrent {
		if rel := math.Abs(j-il) / math.Abs(il); rel > 0.02 {
			t.Fatalf("interface %d current %g deviates from contact %g by %.1f%%", i, j, il, 100*rel)
		}
	}
}

func TestZeroBiasZeroCurrent(t *testing.T) {
	p := testParams()
	p.Vds = 0
	s := ballistic(t, p)
	scale := math.Abs(ballistic(t, testParams()).Obs.CurrentL)
	if math.Abs(s.Obs.CurrentL) > 1e-6*scale+1e-12 {
		t.Fatalf("zero bias should carry no current, got %g (scale %g)", s.Obs.CurrentL, scale)
	}
}

func TestEquilibriumTemperatureIsContactTemperature(t *testing.T) {
	// Before any electron-phonon coupling the lattice sits at TC.
	s := ballistic(t, testParams())
	for i, temp := range s.Obs.SlabTemperature(s.Dev) {
		if math.Abs(temp-s.Dev.P.TC) > 2 {
			t.Fatalf("slab %d equilibrium temperature %g K, want ≈%g K", i, temp, s.Dev.P.TC)
		}
	}
}

func TestCurrentIncreasesWithBias(t *testing.T) {
	p := testParams()
	low := ballistic(t, p)
	p2 := p
	p2.Vds = 0.5
	high := ballistic(t, p2)
	if high.Obs.CurrentL <= low.Obs.CurrentL {
		t.Fatalf("current should grow with bias: %g (0.3V) vs %g (0.5V)",
			low.Obs.CurrentL, high.Obs.CurrentL)
	}
}

func TestSpectralCurrentIntegratesToTotal(t *testing.T) {
	s := ballistic(t, testParams())
	p := s.Dev.P
	var integral float64
	w := p.DE / (2 * math.Pi) / float64(p.Nkz)
	for _, j := range s.Obs.SpectralCurrent {
		integral += w * j
	}
	if rel := math.Abs(integral-s.Obs.CurrentL) / math.Abs(s.Obs.CurrentL); rel > 1e-10 {
		t.Fatalf("spectral current does not integrate to the total: %g vs %g", integral, s.Obs.CurrentL)
	}
	// The spectral weight should be concentrated inside the bias window
	// (with thermal tails): the peak energy must lie between MuR and MuL.
	peak := 0
	for i, j := range s.Obs.SpectralCurrent {
		if j > s.Obs.SpectralCurrent[peak] {
			peak = i
		}
	}
	e := p.Energy(peak)
	if e < p.MuR()-0.3 || e > p.MuL()+0.3 {
		t.Fatalf("spectral current peak at %g eV, far outside the bias window [%g, %g]",
			e, p.MuR(), p.MuL())
	}
}

// TestConvergenceStep pins the decision every self-consistent loop
// shares: iteration 0 reports residual 0 and never converges, later
// iterations compare against prev, and a non-finite current is the typed
// error on any iteration — never a residual.
func TestConvergenceStep(t *testing.T) {
	for _, c := range []struct {
		it        int
		cur, prev float64
		tol       float64
		res       float64
		conv      bool
	}{
		{0, 2, math.NaN(), 1, 0, false}, // prev is ignored on iteration 0
		{0, 2, 2, 1, 0, false},          // and iteration 0 never converges
		{1, 2, 1, 1e-5, 0.5, false},
		{3, 2, 2, 1e-5, 0, true},
		{2, -4, -3, 0.5, 0.25, true},
		{1, 0, 0, 1e-5, 0, true}, // the 1e-300 floor keeps 0/0 out
	} {
		res, conv, err := ConvergenceStep(c.it, c.cur, c.prev, c.tol)
		if err != nil || res != c.res || conv != c.conv {
			t.Errorf("ConvergenceStep(%d, %g, %g, %g) = (%g, %v, %v), want (%g, %v, nil)",
				c.it, c.cur, c.prev, c.tol, res, conv, err, c.res, c.conv)
		}
	}
	for _, cur := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, it := range []int{0, 4} {
			res, conv, err := ConvergenceStep(it, cur, 1, 1e-5)
			var nf ErrNonFinite
			if !errors.As(err, &nf) || nf.Iter != it || res != 0 || conv {
				t.Errorf("ConvergenceStep(%d, %g) = (%g, %v, %v), want ErrNonFinite{%d}", it, cur, res, conv, err, it)
			}
		}
	}
}

// TestNewDefaultsOutOfRangeMixing: anything outside (0, 1] — NaN and ±Inf
// included, which compare false against both bounds — falls back to the
// default factor instead of reaching tensor.MixSlice.
func TestNewDefaultsOutOfRangeMixing(t *testing.T) {
	dev := device.MustBuild(testParams())
	for _, c := range []struct{ in, want float64 }{
		{0, 0.5}, {-0.1, 0.5}, {1.5, 0.5},
		{math.NaN(), 0.5}, {math.Inf(1), 0.5}, {math.Inf(-1), 0.5},
		{1, 1}, {0.3, 0.3},
	} {
		if got := New(dev, Loop{Mixing: c.in}).Opts.Mixing; got != c.want {
			t.Errorf("Mixing %g resolves to %g, want %g", c.in, got, c.want)
		}
	}
}

// TestNewDefaultsOutOfRangeTol: a tolerance that is not positive and
// finite falls back to the default. Below zero the loop could only end in
// ErrNotConverged; at +Inf every residual is under it, so a run would
// report convergence at iteration 1.
func TestNewDefaultsOutOfRangeTol(t *testing.T) {
	dev := device.MustBuild(testParams())
	for _, c := range []struct{ in, want float64 }{
		{0, 1e-5}, {-1, 1e-5},
		{math.NaN(), 1e-5}, {math.Inf(1), 1e-5}, {math.Inf(-1), 1e-5},
		{1e-9, 1e-9},
	} {
		if got := New(dev, Loop{Tol: c.in}).Opts.Tol; got != c.want {
			t.Errorf("Tol %g resolves to %g, want %g", c.in, got, c.want)
		}
	}
}

// TestGFPhaseBitwiseAcrossGOMAXPROCS: the fold reads the result slots in
// global point order, so no observable may depend on how many workers
// swept the shard or in which order their solves landed — SpectralCurrent
// included, which used to be summed under a mutex in arrival order.
func TestGFPhaseBitwiseAcrossGOMAXPROCS(t *testing.T) {
	dev := device.MustBuild(testParams())
	run := func(procs int) Observables {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := New(dev, DefaultOptions())
		// One full iteration first, so the compared GF phase runs against
		// nonzero Σ≷/Π≷ and every collision term is live.
		for pass := 0; pass < 2; pass++ {
			if err := s.GFPhase(); err != nil {
				t.Fatal(err)
			}
			s.SSEPhase()
		}
		return s.Obs
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Errorf("observables differ between GOMAXPROCS 1 and 4:\n 1: %+v\n 4: %+v", one, four)
	}
	if one.SpectralCurrent == nil || one.LDOS == nil || one.ElectronEnergyLoss == 0 {
		t.Errorf("compared observables are not populated: %+v", one)
	}
}
