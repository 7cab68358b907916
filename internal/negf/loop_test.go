package negf_test

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/negf"
	"repro/internal/sse"
)

// The physics tests that need a converged self-consistent loop. The loop
// is dist.Run — here on the one-rank world, the order a qt run without
// ranks executes — so they live outside the package, which dist imports.

// runLoop runs the self-consistent loop on dev with the given knobs
// (defaults for the unset ones) and returns the outcome; running out of
// iterations is not a failure.
func runLoop(t *testing.T, dev *device.Device, l negf.Loop) *dist.Result {
	t.Helper()
	res, err := dist.Run(dev, dist.Options{Loop: l, Ranks: 1, Schedule: dist.ScheduleOverlap, Workers: 2})
	if err != nil && !errors.Is(err, negf.ErrNotConverged) {
		t.Fatal(err)
	}
	return res
}

// loopOn runs the loop with default knobs on the test device built from p.
func loopOn(t *testing.T, p device.Params) (*device.Device, *dist.Result) {
	t.Helper()
	dev := device.MustBuild(p)
	return dev, runLoop(t, dev, negf.Loop{})
}

// greens returns the kit after one GF phase from the loop's final Σ≷/Π≷:
// the G≷ the converged self-energies produce.
func greens(t *testing.T, dev *device.Device, res *dist.Result) *negf.Solver {
	t.Helper()
	if res.Final == nil {
		t.Fatal("one-rank run handed over no final state")
	}
	s := negf.New(dev, negf.Loop{Warm: res.Final})
	if err := s.GFPhase(); err != nil {
		t.Fatal(err)
	}
	return s
}

func maxSlabTemperature(dev *device.Device, obs *negf.Observables) float64 {
	var mx float64
	for _, temp := range obs.SlabTemperature(dev) {
		mx = math.Max(mx, temp)
	}
	return mx
}

func TestSelfConsistentLoopConverges(t *testing.T) {
	dev := device.MustBuild(negf.ParamsForTest())
	res, err := dist.Run(dev, dist.Options{Ranks: 1, Schedule: dist.ScheduleOverlap, Workers: 2})
	if err != nil {
		t.Fatalf("loop did not converge: %v (trace %v)", err, res.IterTrace)
	}
	if len(res.IterTrace) < 2 {
		t.Fatal("expected at least two iterations")
	}
	last := res.IterTrace[len(res.IterTrace)-1]
	if last.Residual > negf.DefaultOptions().Tol {
		t.Fatalf("final relative change %g above tolerance", last.Residual)
	}
	if res.Obs.CurrentL <= 0 {
		t.Fatal("converged current should remain positive")
	}
}

func TestSelfHeatingRaisesChannelTemperature(t *testing.T) {
	p := negf.ParamsForTest()
	p.Coupling = 0.12
	dev, res := loopOn(t, p)
	temps := res.Obs.SlabTemperature(dev)
	if maxT := maxSlabTemperature(dev, &res.Obs); maxT < p.TC+5 {
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
	p := negf.ParamsForTest()
	p.Coupling = 0.12
	_, res := loopOn(t, p)
	re, rp := res.Obs.ElectronEnergyLoss, res.Obs.PhononEnergyGain
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
	p := negf.ParamsForTest()
	p.Coupling = 0.12
	_, res := loopOn(t, p)
	var total float64
	for _, pw := range res.Obs.DissipatedPower {
		total += pw
	}
	if total <= 0 {
		t.Fatalf("total dissipated power should be positive, got %g (profile %v)",
			total, res.Obs.DissipatedPower)
	}
}

// TestOMENAndDaCeKernelsGiveSameSolution: the baseline loop nest and the
// data-centric kernel reach the same current and Σ≷ state.
func TestOMENAndDaCeKernelsGiveSameSolution(t *testing.T) {
	p := negf.ParamsForTest()
	p.NE = 14
	run := func(k sse.Kernel) *dist.Result {
		return runLoop(t, device.MustBuild(p), negf.Loop{Kernel: k, MaxIter: 4})
	}
	so := run(sse.OMEN{})
	sd := run(sse.DaCe{})
	if rel := math.Abs(so.Obs.CurrentL-sd.Obs.CurrentL) / math.Abs(sd.Obs.CurrentL); rel > 1e-9 {
		t.Fatalf("kernels disagree on the converged current: %g vs %g", so.Obs.CurrentL, sd.Obs.CurrentL)
	}
	for i, v := range so.Final.SigL.Data {
		if d := cmplx.Abs(v - sd.Final.SigL.Data[i]); d > 1e-9 {
			t.Fatalf("kernels disagree on Σ< element %d: %g", i, d)
		}
	}
}

func TestCacheModesAgree(t *testing.T) {
	p := negf.ParamsForTest()
	p.NE = 12
	run := func(mode bc.Mode) float64 {
		return runLoop(t, device.MustBuild(p), negf.Loop{CacheMode: mode, MaxIter: 3}).Obs.CurrentL
	}
	if a, b := run(bc.NoCache), run(bc.CacheBC); a != b {
		t.Fatalf("cache mode changed the physics: %g vs %g", a, b)
	}
}

func TestIterTraceMonotoneConvergence(t *testing.T) {
	_, res := loopOn(t, negf.ParamsForTest())
	if !res.Converged {
		t.Fatal("loop did not converge")
	}
	// Relative change should shrink substantially from the first measured
	// iteration to the last (geometric with linear mixing).
	first := res.IterTrace[1].Residual
	last := res.IterTrace[len(res.IterTrace)-1].Residual
	if last > first {
		t.Fatalf("convergence trace not decreasing: first %g, last %g", first, last)
	}
}

func TestTotalEnergyCurrentProfile(t *testing.T) {
	p := negf.ParamsForTest()
	p.Coupling = 0.12
	_, res := loopOn(t, p)
	el, ph := res.Obs.InterfaceEnergyCurrent, res.Obs.PhononInterfaceEnergy
	if len(el) != p.Bnum-1 || len(ph) != p.Bnum-1 {
		t.Fatal("profile length wrong")
	}
	// Fig. 11: the electron energy current drops along the channel as
	// energy converts to heat; the combined profile varies less than the
	// electron part alone.
	tot := make([]float64, len(el))
	for i := range tot {
		tot[i] = el[i] + ph[i]
	}
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
	dev := device.MustBuild(negf.ParamsForTest())
	res, err := dist.Run(dev, dist.Options{Ranks: 1, Loop: negf.Loop{MaxIter: 1}})
	if !errors.Is(err, negf.ErrNotConverged) {
		t.Fatalf("expected ErrNotConverged, got %v", err)
	}
	if res == nil || res.Obs.CurrentL == 0 {
		t.Fatal("unconverged run should still produce observables")
	}
}

func TestMixedPrecisionConvergesToSameCurrent(t *testing.T) {
	// Fig. 7(b): with normalization the SSE-16 loop converges to a current
	// within ~1e-3 relative of the fp64 result; without normalization the
	// discrepancy is significantly larger.
	p := negf.ParamsForTest()
	p.NE = 14
	p.Coupling = 0.12
	run := func(k sse.Kernel) float64 {
		return runLoop(t, device.MustBuild(p), negf.Loop{Kernel: k, MaxIter: 8}).Obs.CurrentL
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
	p := negf.ParamsForTest()
	p.Coupling = 0.12
	run := func(anderson bool) (float64, int) {
		res, err := dist.Run(device.MustBuild(p), dist.Options{Ranks: 1, Schedule: dist.ScheduleOverlap, Workers: 2,
			Loop: negf.Loop{Anderson: anderson, MaxIter: 40}})
		if err != nil {
			t.Fatalf("anderson=%v: %v", anderson, err)
		}
		return res.Obs.CurrentL, len(res.IterTrace)
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

// TestScatteringReducesBallisticCurrent: electron-phonon scattering opens
// a backscattering channel; the self-consistent current must not exceed
// the coherent (ballistic) value.
func TestScatteringReducesBallisticCurrent(t *testing.T) {
	p := negf.ParamsForTest()
	p.Coupling = 0.15
	dev := device.MustBuild(p)

	sb := negf.New(dev, negf.DefaultOptions())
	if err := sb.GFPhase(); err != nil {
		t.Fatal(err)
	}
	ballisticI := sb.Obs.CurrentL

	scatteredI := runLoop(t, dev, negf.Loop{}).Obs.CurrentL
	if scatteredI > ballisticI*1.02 {
		t.Fatalf("scattering should not amplify the current: %g vs ballistic %g",
			scatteredI, ballisticI)
	}
}

// TestHeatingGrowsWithBias: higher Vds dissipates more power and heats
// the lattice further.
func TestHeatingGrowsWithBias(t *testing.T) {
	maxTemp := func(vds float64) float64 {
		p := negf.ParamsForTest()
		p.Coupling = 0.12
		p.Vds = vds
		dev, res := loopOn(t, p)
		return maxSlabTemperature(dev, &res.Obs)
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
		p := negf.ParamsForTest()
		p.Coupling = c
		dev, res := loopOn(t, p)
		return maxSlabTemperature(dev, &res.Obs)
	}
	if w, s := maxTemp(0.05), maxTemp(0.15); s <= w {
		t.Fatalf("heating should grow with coupling: %g K vs %g K", w, s)
	}
}

// TestZeroBiasNoHeating: at equilibrium there is no Joule heating even
// with strong coupling — the lattice stays at the contact temperature.
func TestZeroBiasNoHeating(t *testing.T) {
	p := negf.ParamsForTest()
	p.Coupling = 0.15
	p.Vds = 0
	dev, res := loopOn(t, p)
	for i, temp := range res.Obs.SlabTemperature(dev) {
		if math.Abs(temp-p.TC) > 5 {
			t.Fatalf("slab %d at %g K without bias (contacts %g K)", i, temp, p.TC)
		}
	}
	// And the total dissipated power is ~0.
	var tot float64
	for _, pw := range res.Obs.DissipatedPower {
		tot += pw
	}
	scale := math.Abs(res.Obs.ElectronEnergyLoss) + 1e-12
	if math.Abs(tot) > 100*scale {
		t.Fatalf("equilibrium dissipated power %g should vanish", tot)
	}
}

// TestPhononHeatFlowsFromHotSpot: after self-heating, the phonon energy
// current flows outward from the hot spot — negative (leftward) on the
// source side and positive (rightward) on the drain side.
func TestPhononHeatFlowsFromHotSpot(t *testing.T) {
	p := negf.ParamsForTest()
	p.Coupling = 0.15
	_, res := loopOn(t, p)
	jq := res.Obs.PhononInterfaceEnergy
	first, last := jq[0], jq[len(jq)-1]
	if !(first < 0 && last > 0) {
		t.Fatalf("heat should flow outward from the channel: JQ = %v", jq)
	}
}

// TestEnergyBalanceImprovesWithWeakCoupling: the SCBA conservation residue
// shrinks as the scattering becomes a small perturbation.
func TestEnergyBalanceImprovesWithWeakCoupling(t *testing.T) {
	residue := func(c float64) float64 {
		p := negf.ParamsForTest()
		p.Coupling = c
		_, res := loopOn(t, p)
		re, rp := res.Obs.ElectronEnergyLoss, res.Obs.PhononEnergyGain
		return math.Abs(re-rp) / math.Max(math.Abs(re), math.Abs(rp))
	}
	weak := residue(0.04)
	if weak > 0.25 {
		t.Fatalf("weak-coupling energy balance residue %g too large", weak)
	}
}

// scba runs the self-consistent loop with the given SSE kernel on the
// conservation suite's device (coupling 0.1), optionally disordered.
func scba(t *testing.T, kernel sse.Kernel, profile *device.Profile, seed uint64) (*device.Device, *dist.Result) {
	t.Helper()
	p := negf.ParamsForTest()
	p.Coupling = 0.1
	dev := device.MustBuild(p)
	if profile != nil {
		if err := profile.Apply(dev, seed); err != nil {
			t.Fatal(err)
		}
	}
	return dev, runLoop(t, dev, negf.Loop{Kernel: kernel})
}

// TestCurrentConservationSCBA: with electron-phonon scattering the
// current must still be conserved through every slab once the Σ≷ have
// self-consistently converged — for the FP64 kernel and, within the same
// documented bound, for the mixed-precision kernel whose quantization
// error is far below the SCBA residual.
func TestCurrentConservationSCBA(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kernel sse.Kernel
		tol    float64
	}{
		{"fp64", sse.DaCe{}, negf.SCBAConservTol},
		{"mixed", sse.Mixed{Normalize: true}, negf.SCBAConservTol},
	} {
		_, res := scba(t, tc.kernel, nil, 0)
		if r := negf.ConservationResidual(&res.Obs); r > tc.tol {
			t.Errorf("%s: SCBA interface currents deviate by %.3g (tol %g): I_L=%g profile=%v",
				tc.name, r, tc.tol, res.Obs.CurrentL, res.Obs.InterfaceCurrent)
		}
	}
}

// TestConservationDegradesGracefullyMixed: the mixed path must not make
// conservation materially worse than fp64 — the two SCBA residuals stay
// within a small factor of each other.
func TestConservationDegradesGracefullyMixed(t *testing.T) {
	_, fpRes := scba(t, sse.DaCe{}, nil, 0)
	_, mxRes := scba(t, sse.Mixed{Normalize: true}, nil, 0)
	fp := negf.ConservationResidual(&fpRes.Obs)
	mx := negf.ConservationResidual(&mxRes.Obs)
	if mx > 3*fp+1e-3 {
		t.Errorf("mixed SCBA residual %.3g vs fp64 %.3g: quantization dominates conservation", mx, fp)
	}
}

// TestGAntiHermitianSCBA: through the self-consistent loop the scattering
// Σ≷ feed back into G≷; both precisions preserve the identity to the
// D̃-stencil discretization level, and the mixed path's quantization must
// stay hidden below it.
func TestGAntiHermitianSCBA(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kernel sse.Kernel
		tol    float64
	}{
		{"fp64", sse.DaCe{}, negf.AntiHermFP64},
		{"mixed", sse.Mixed{Normalize: true}, negf.AntiHermMixed},
	} {
		dev, res := scba(t, tc.kernel, nil, 0)
		if r := negf.AntiHermResidual(greens(t, dev, res)); r > tc.tol {
			t.Errorf("%s: SCBA G≷ anti-Hermiticity violated: %.3g (tol %g)", tc.name, r, tc.tol)
		}
	}
}

// TestConservationDisorderedSCBA: with electron-phonon scattering on top
// of the disorder, both invariants must hold at the documented SCBA
// bounds through the self-consistent loop.
func TestConservationDisorderedSCBA(t *testing.T) {
	for _, seed := range []uint64{11, 12} {
		dev, res := scba(t, sse.DaCe{}, negf.ProfileForTest(), seed)
		if r := negf.ConservationResidual(&res.Obs); r > negf.SCBAConservTol {
			t.Errorf("seed %d: SCBA interface currents deviate by %.3g (tol %g)",
				seed, r, negf.SCBAConservTol)
		}
		if r := negf.AntiHermResidual(greens(t, dev, res)); r > negf.AntiHermFP64 {
			t.Errorf("seed %d: SCBA G≷ anti-Hermiticity violated: %.3g (tol %g)",
				seed, r, negf.AntiHermFP64)
		}
	}
}

// TestStoreLeavesEveryBitAlone: a hit returns the very matrices the
// decimation would have produced, so a solve over no store, over a cold
// store, over the store that solve warmed, and over a store too small to
// hold the device (three results: it evicts all the way through) leave
// the same bits in every row, observable and final Σ≷/Π≷ — and only the
// cold and the evicting ones decimate. NoCache recomputes on every
// lookup whatever sits under it.
func TestStoreLeavesEveryBitAlone(t *testing.T) {
	p := device.TestParams(12, 3, 2)
	p.NE = 8
	p.Nomega = 2
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode bc.Mode, store *bc.Store) *dist.Result {
		res, err := dist.Run(dev, dist.Options{Ranks: 1, Schedule: dist.ScheduleOverlap, Workers: 2,
			Loop: negf.Loop{CacheMode: mode, Store: store, MaxIter: 3, Tol: 1e-300}})
		if err != negf.ErrNotConverged {
			t.Fatal(err)
		}
		return res
	}
	lookups := 2 * (p.Nkz*p.NE + p.Nqz()*p.Nomega) // per iteration: two contacts per point
	bs := p.ElBlockSize()
	shared := bc.NewStore(bc.StoreBudget)
	budget := int64(3 * 3 * 16 * bs * bs)
	small := bc.NewStore(budget)

	ref := run(bc.CacheBC, nil)
	for _, c := range []struct {
		name        string
		mode        bc.Mode
		store       *bc.Store
		decimations int
	}{
		{"cold store", bc.CacheBC, shared, lookups},
		{"warm store", bc.CacheBC, shared, 0},
		{"evicting store", bc.CacheBC, small, lookups},
		{"evicting store again", bc.CacheBC, small, lookups},
		{"NoCache over the warm store", bc.NoCache, shared, 3 * lookups},
	} {
		res := run(c.mode, c.store)
		if got := res.Load[0].BCComputes; got != c.decimations {
			t.Errorf("%s: %d decimations, want %d", c.name, got, c.decimations)
		}
		for i, st := range res.IterTrace {
			w := ref.IterTrace[i]
			if st.Current != w.Current || st.Residual != w.Residual || st.ElEnergyLoss != w.ElEnergyLoss || st.PhEnergyGain != w.PhEnergyGain {
				t.Errorf("%s: iteration %d differs from the run with no store: %+v vs %+v", c.name, i, st, w)
			}
		}
		for i, v := range res.Final.SigL.Data {
			if v != ref.Final.SigL.Data[i] {
				t.Fatalf("%s: Σ< differs at %d", c.name, i)
			}
		}
		for i, v := range res.Final.PiL.Data {
			if v != ref.Final.PiL.Data[i] {
				t.Fatalf("%s: Π< differs at %d", c.name, i)
			}
		}
	}
	if st := shared.Stats(); st.Decimations != int64(lookups) || st.Hits != int64(lookups) || st.Digests != int64(2*2*(p.Nkz+p.Nqz())) {
		t.Errorf("shared store: %+v, want %d decimations, as many hits, one digest per lead and run", st, lookups)
	}
	if st := small.Stats(); st.Bytes > budget || st.Entries > 3 || st.Evictions < int64(2*lookups-3) {
		t.Errorf("evicting store: %+v", st)
	}
}
