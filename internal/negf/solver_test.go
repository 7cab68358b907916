package negf

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/sse"
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

func TestSelfConsistentLoopConverges(t *testing.T) {
	dev := device.MustBuild(testParams())
	s := New(dev, DefaultOptions())
	obs, err := s.Run()
	if err != nil {
		t.Fatalf("loop did not converge: %v (trace %v)", err, s.IterTrace)
	}
	if len(s.IterTrace) < 2 {
		t.Fatal("expected at least two iterations")
	}
	last := s.IterTrace[len(s.IterTrace)-1]
	if last.Residual > s.Opts.Tol {
		t.Fatalf("final relative change %g above tolerance", last.Residual)
	}
	if obs.CurrentL <= 0 {
		t.Fatal("converged current should remain positive")
	}
}

func TestSelfHeatingRaisesChannelTemperature(t *testing.T) {
	p := testParams()
	p.Coupling = 0.12
	dev := device.MustBuild(p)
	s := New(dev, DefaultOptions())
	if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	temps := s.Obs.SlabTemperature(dev)
	var maxT float64
	for _, temp := range temps {
		maxT = math.Max(maxT, temp)
	}
	if maxT < p.TC+5 {
		t.Fatalf("expected Joule heating to raise the lattice temperature above %g K, got max %g K (profile %v)",
			p.TC, maxT, temps)
	}
	// The hottest point must lie inside the channel, not at the contacts —
	// the Fig. 1(d)/Fig. 11 signature.
	hottest := 0
	for i, temp := range temps {
		if temp > temps[hottest] {
			hottest = i
		}
	}
	if hottest == 0 || hottest == len(temps)-1 {
		t.Fatalf("hottest slab %d should be interior (profile %v)", hottest, temps)
	}
}

func TestEnergyConservationBetweenBaths(t *testing.T) {
	// The §8.1 validation: energy lost by electrons equals energy absorbed
	// by the phonon system (within the discretization error of the folded
	// ω-grid and the η bath).
	p := testParams()
	p.Coupling = 0.12
	dev := device.MustBuild(p)
	s := New(dev, DefaultOptions())
	if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	re, rp := s.Obs.ElectronEnergyLoss, s.Obs.PhononEnergyGain
	if re <= 0 {
		t.Fatalf("electrons under bias must lose energy to the lattice, got %g", re)
	}
	if rp <= 0 {
		t.Fatalf("phonon bath must gain energy, got %g", rp)
	}
	if rel := math.Abs(re-rp) / math.Max(re, rp); rel > 0.4 {
		t.Fatalf("energy balance violated: electron loss %g vs phonon gain %g (rel %g)", re, rp, rel)
	}
}

func TestDissipatedPowerPositiveInChannel(t *testing.T) {
	p := testParams()
	p.Coupling = 0.12
	dev := device.MustBuild(p)
	s := New(dev, DefaultOptions())
	if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	var total float64
	for _, pw := range s.Obs.DissipatedPower {
		total += pw
	}
	if total <= 0 {
		t.Fatalf("total dissipated power should be positive, got %g (profile %v)",
			total, s.Obs.DissipatedPower)
	}
}

func TestOMENAndDaCeKernelsGiveSameSolution(t *testing.T) {
	p := testParams()
	p.NE = 14
	run := func(k sse.Kernel) *Solver {
		dev := device.MustBuild(p)
		opts := DefaultOptions()
		opts.Kernel = k
		opts.MaxIter = 4
		s := New(dev, opts)
		if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		return s
	}
	so := run(sse.OMEN{})
	sd := run(sse.DaCe{})
	if rel := math.Abs(so.Obs.CurrentL-sd.Obs.CurrentL) / math.Abs(sd.Obs.CurrentL); rel > 1e-9 {
		t.Fatalf("kernels disagree on the converged current: %g vs %g", so.Obs.CurrentL, sd.Obs.CurrentL)
	}
	if d := so.GL.MaxAbsDiff(sd.GL); d > 1e-9 {
		t.Fatalf("kernels disagree on G<: %g", d)
	}
}

func TestCacheModesAgree(t *testing.T) {
	p := testParams()
	p.NE = 12
	run := func(mode bc.Mode) float64 {
		dev := device.MustBuild(p)
		opts := DefaultOptions()
		opts.CacheMode = mode
		opts.MaxIter = 3
		s := New(dev, opts)
		if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		return s.Obs.CurrentL
	}
	if a, b := run(bc.NoCache), run(bc.CacheBC); a != b {
		t.Fatalf("cache mode changed the physics: %g vs %g", a, b)
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

func TestIterTraceMonotoneConvergence(t *testing.T) {
	dev := device.MustBuild(testParams())
	s := New(dev, DefaultOptions())
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Relative change should shrink substantially from the first measured
	// iteration to the last (geometric with linear mixing).
	first := s.IterTrace[1].Residual
	last := s.IterTrace[len(s.IterTrace)-1].Residual
	if last > first {
		t.Fatalf("convergence trace not decreasing: first %g, last %g", first, last)
	}
}

func TestTotalEnergyCurrentProfile(t *testing.T) {
	p := testParams()
	p.Coupling = 0.12
	dev := device.MustBuild(p)
	s := New(dev, DefaultOptions())
	if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	tot := s.Obs.TotalEnergyCurrent()
	if len(tot) != p.Bnum-1 {
		t.Fatal("profile length wrong")
	}
	// Fig. 11: the electron energy current drops along the channel as
	// energy converts to heat; the combined profile varies less than the
	// electron part alone.
	el := s.Obs.InterfaceEnergyCurrent
	varOf := func(v []float64) float64 {
		mn, mx := v[0], v[0]
		for _, x := range v {
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		return mx - mn
	}
	if varOf(tot) > varOf(el)+1e-12 {
		t.Logf("note: total profile variation %g vs electron %g", varOf(tot), varOf(el))
	}
}

func TestRunErrNotConvergedStillReturnsObservables(t *testing.T) {
	dev := device.MustBuild(testParams())
	opts := DefaultOptions()
	opts.MaxIter = 1
	s := New(dev, opts)
	obs, err := s.Run()
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("expected ErrNotConverged, got %v", err)
	}
	if obs == nil || obs.CurrentL == 0 {
		t.Fatal("unconverged run should still produce observables")
	}
}

func TestMixedPrecisionConvergesToSameCurrent(t *testing.T) {
	// Fig. 7(b): with normalization the SSE-16 loop converges to a current
	// within ~1e-3 relative of the fp64 result; without normalization the
	// discrepancy is significantly larger.
	p := testParams()
	p.NE = 14
	p.Coupling = 0.12
	run := func(k sse.Kernel) float64 {
		dev := device.MustBuild(p)
		opts := DefaultOptions()
		opts.Kernel = k
		opts.MaxIter = 8
		s := New(dev, opts)
		if _, err := s.Run(); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatal(err)
		}
		return s.Obs.CurrentL
	}
	ref := run(sse.DaCe{})
	norm := run(sse.Mixed{Normalize: true})
	raw := run(sse.Mixed{Normalize: false})
	relNorm := math.Abs(norm-ref) / math.Abs(ref)
	relRaw := math.Abs(raw-ref) / math.Abs(ref)
	if relNorm > 1e-3 {
		t.Fatalf("normalized mixed precision off by %g", relNorm)
	}
	if relRaw < relNorm {
		t.Fatalf("unnormalized (%g) should not beat normalized (%g)", relRaw, relNorm)
	}
	t.Logf("mixed-precision current error: normalized %.2e, unnormalized %.2e", relNorm, relRaw)
}

func TestAndersonAccelerationConverges(t *testing.T) {
	// The Anderson-accelerated loop must reach the same fixed point as
	// linear mixing, in no more iterations.
	p := testParams()
	p.Coupling = 0.12
	run := func(anderson bool) (float64, int) {
		dev := device.MustBuild(p)
		opts := DefaultOptions()
		opts.Anderson = anderson
		opts.MaxIter = 40
		s := New(dev, opts)
		if _, err := s.Run(); err != nil {
			t.Fatalf("anderson=%v: %v", anderson, err)
		}
		return s.Obs.CurrentL, len(s.IterTrace)
	}
	iLin, nLin := run(false)
	iAnd, nAnd := run(true)
	if rel := math.Abs(iAnd-iLin) / math.Abs(iLin); rel > 1e-4 {
		t.Fatalf("Anderson converged to a different current: %g vs %g (rel %g)", iAnd, iLin, rel)
	}
	if nAnd > nLin+2 {
		t.Fatalf("Anderson (%d iters) should not be slower than linear mixing (%d)", nAnd, nLin)
	}
	t.Logf("iterations: linear %d, Anderson %d", nLin, nAnd)
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
		if got := New(dev, Options{Mixing: c.in}).Opts.Mixing; got != c.want {
			t.Errorf("Mixing %g resolves to %g, want %g", c.in, got, c.want)
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
