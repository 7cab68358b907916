package ensemble

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/qt"
	"repro/internal/report"
)

// studySpec is the fast profiled structure every test runs on.
func studySpec() qt.Spec {
	return qt.Spec{
		Atoms: 12, Slabs: 3, Orbitals: 2, EnergyPoints: 12, PhononModes: 3,
		Profile: &device.Profile{
			Doping: &device.Doping{Fraction: 0.25, Shift: -0.08},
			Strain: &device.Strain{Amplitude: 0.04},
		},
	}
}

// fastConfig solves studySpec in at most five loose iterations.
func fastConfig() qt.RunConfig {
	return qt.RunConfig{Spec: studySpec(), MaxIterations: 5, Tolerance: 1e-3}
}

// TestWelfordMatchesTwoPass pins the reduction arithmetic: the
// streaming moments must match a naive serial two-pass mean/variance to
// 1e-12 relative.
func TestWelfordMatchesTwoPass(t *testing.T) {
	// A deterministic sample in the conditioning regime of real ensemble
	// currents (O(1) offset, small spread) — where the streaming and the
	// two-pass algorithm must agree to full double precision.
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = 2 + math.Sin(float64(i))*1e-3
	}
	var w welford
	for _, x := range xs {
		w.add(x)
	}
	got := w.stat()

	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	variance := varSum / float64(len(xs)-1)

	if relErr(got.Mean, mean) > 1e-12 {
		t.Errorf("mean: welford %.17g vs two-pass %.17g", got.Mean, mean)
	}
	if relErr(got.Variance, variance) > 1e-12 {
		t.Errorf("variance: welford %.17g vs two-pass %.17g", got.Variance, variance)
	}
	if got.N != len(xs) {
		t.Errorf("N = %d, want %d", got.N, len(xs))
	}
	wantCI := 1.96 * math.Sqrt(variance/float64(len(xs)))
	if relErr(got.CI95, wantCI) > 1e-12 {
		t.Errorf("CI95 = %g, want %g", got.CI95, wantCI)
	}
	if got.Min >= got.Mean || got.Max <= got.Mean {
		t.Errorf("extrema do not bracket the mean: %+v", got)
	}

	var one welford
	one.add(3.5)
	s := one.stat()
	if s.N != 1 || s.Mean != 3.5 || s.Variance != 0 || s.CI95 != 0 {
		t.Errorf("single-sample stat wrong: %+v", s)
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestStudyEndToEnd runs a small study and checks the reduced report
// against a serial recomputation of the member currents.
func TestStudyEndToEnd(t *testing.T) {
	st := &Study{Config: fastConfig(), Members: 4, BaseSeed: 100}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Members != 4 || len(rep.MemberRows) != 4 || rep.Current.N != 4 {
		t.Fatalf("member accounting wrong: members=%d rows=%d N=%d", rep.Members, len(rep.MemberRows), rep.Current.N)
	}
	for i, m := range res.Members {
		if m.Err != nil {
			t.Fatalf("member %d failed: %v", i, m.Err)
		}
		if m.Seed != 100+uint64(i) {
			t.Fatalf("member %d seed = %d, want %d", i, m.Seed, 100+uint64(i))
		}
	}

	// Serial recomputation (naive two-pass) of the reported statistics.
	mean := 0.0
	for _, m := range res.Members {
		mean += m.Result.Current
	}
	mean /= float64(len(res.Members))
	varSum := 0.0
	for _, m := range res.Members {
		d := m.Result.Current - mean
		varSum += d * d
	}
	variance := varSum / float64(len(res.Members)-1)
	if relErr(rep.Current.Mean, mean) > 1e-12 {
		t.Errorf("ensemble mean %.17g vs serial %.17g", rep.Current.Mean, mean)
	}
	if relErr(rep.Current.Variance, variance) > 1e-12 {
		t.Errorf("ensemble variance %.17g vs serial %.17g", rep.Current.Variance, variance)
	}

	// Disorder must actually vary the observable across seeds.
	if rep.Current.Min == rep.Current.Max {
		t.Error("all realizations produced identical currents — disorder had no effect")
	}
	// Sequential members report an LDOS, so the DOS spectrum is present.
	if rep.DOSMembers != 4 || len(rep.DOS) != 12 {
		t.Errorf("DOS reduction missing: members=%d rows=%d", rep.DOSMembers, len(rep.DOS))
	}
}

// TestStudyDeterministic: two runs of the same study reduce to the
// bitwise-same statistics (solver and reduction are both deterministic
// in index order).
func TestStudyDeterministic(t *testing.T) {
	run := func() *Result {
		st := &Study{Config: fastConfig(), Members: 3, BaseSeed: 7}
		res, err := st.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Report.Current.Mean != b.Report.Current.Mean || a.Report.Current.Variance != b.Report.Current.Variance {
		t.Errorf("study not deterministic: %+v vs %+v", a.Report.Current, b.Report.Current)
	}
	for i := range a.Members {
		if a.Members[i].Result.Current != b.Members[i].Result.Current {
			t.Errorf("member %d current differs across identical studies", i)
		}
	}
}

// TestStudyWarmStart: the warm-started study converges every member and
// reports the same physics family as the cold one.
func TestStudyWarmStart(t *testing.T) {
	st := &Study{Config: qt.RunConfig{Spec: studySpec(), MaxIterations: 12, Tolerance: 1e-4},
		Members: 3, BaseSeed: 55}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range res.Members {
		if m.Err != nil {
			t.Fatalf("warm member %d failed: %v", i, m.Err)
		}
		if !m.Result.Converged {
			t.Errorf("warm member %d did not converge", i)
		}
	}
}

// TestStudySeedsFromMemberZero: a study seeds member 1 from member 0's
// final state — member 1's result is, bit for bit, a direct run of its
// configuration warm-started from that state.
func TestStudySeedsFromMemberZero(t *testing.T) {
	st := &Study{Config: qt.RunConfig{Spec: studySpec(), MaxIterations: 12, Tolerance: 1e-4},
		Members: 2, BaseSeed: 21}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	donor, got := res.Members[0].Result, res.Members[1].Result
	if donor == nil || got == nil || donor.FinalState == nil {
		t.Fatalf("members did not finish with a donor state: %+v", res.Members)
	}
	rc := st.Config
	rc.Spec = st.memberSpec(1)
	sim, err := qt.NewFromConfig(rc, qt.WithWarmStart(donor.FinalState))
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || len(got.Trace) != len(want.Trace) {
		t.Fatalf("member 1 ran %d iterations, the warm-started run %d", got.Iterations, want.Iterations)
	}
	for i := range want.Trace {
		g, w := got.Trace[i], want.Trace[i]
		if math.Float64bits(g.Current) != math.Float64bits(w.Current) || math.Float64bits(g.Residual) != math.Float64bits(w.Residual) {
			t.Errorf("iteration %d: member 1 current %v residual %v, warm-started run %v %v", i, g.Current, g.Residual, w.Current, w.Residual)
		}
	}
	if math.Float64bits(got.Current) != math.Float64bits(want.Current) ||
		math.Float64bits(got.EnergyBalance) != math.Float64bits(want.EnergyBalance) ||
		math.Float64bits(got.MaxTemperature) != math.Float64bits(want.MaxTemperature) ||
		got.HotSpot != want.HotSpot || got.Converged != want.Converged {
		t.Errorf("member 1 result differs from the warm-started run: %+v vs %+v", got, want)
	}
	if !reflect.DeepEqual(got.Observables, want.Observables) {
		t.Error("member 1 observables differ from the warm-started run's")
	}
}

// TestStudyValidation rejects empty and profile-less studies.
func TestStudyValidation(t *testing.T) {
	if _, err := (&Study{Config: qt.RunConfig{Spec: studySpec()}}).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "at least one member") {
		t.Errorf("zero-member study accepted (err = %v)", err)
	}
	clean := studySpec()
	clean.Profile = nil
	if _, err := (&Study{Config: qt.RunConfig{Spec: clean}, Members: 2}).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "no profile") {
		t.Errorf("profile-less study accepted (err = %v)", err)
	}
}

// TestStudyCancellation: a cancelled context stops the study between
// iterations and surfaces the context error.
func TestStudyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := &Study{Config: fastConfig(), Members: 2}
	res, err := st.Run(ctx)
	if err == nil {
		t.Fatal("cancelled study reported no error")
	}
	if res == nil {
		t.Fatal("cancelled study must still return the partial result")
	}
}

// TestReduceSkipsFailedMembers: errored and unconverged members appear
// as rows and count as members, and poison no statistic.
func TestReduceSkipsFailedMembers(t *testing.T) {
	dev, err := studySpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	members := []Member{
		{Index: 0, Seed: 1, Result: &qt.Result{Converged: true, Current: 1.0, Iterations: 3}},
		{Index: 1, Seed: 2, Err: context.DeadlineExceeded},
		{Index: 2, Seed: 3, Result: &qt.Result{Converged: true, Current: 3.0, Iterations: 4}},
		{Index: 3, Seed: 4, Result: &qt.Result{Converged: false, Current: -19.9, Iterations: 25}},
	}
	rep := reduce(dev, members)
	if rep.Members != 4 || rep.Current.N != 2 || rep.Converged != 2 {
		t.Fatalf("failed member mishandled: members %d converged %d, %+v", rep.Members, rep.Converged, rep.Current)
	}
	if rep.Current.Mean != 2.0 || rep.Current.Min != 1.0 {
		t.Errorf("mean = %g, min = %g, want 2 and 1", rep.Current.Mean, rep.Current.Min)
	}
	if len(rep.MemberRows) != 4 {
		t.Errorf("rows = %d, want 4 (failed members still listed)", len(rep.MemberRows))
	}
	if row := rep.MemberRows[3]; row.Current != -19.9 || row.Converged {
		t.Errorf("unconverged member's row %+v does not say what it ended at", row)
	}
}

// TestStudySeedsAndRetries drives a study through a recording executor:
// member 0 runs cold before any other member starts, members 1..N−1 are
// seeded with its final state, and a seeded member that ends unconverged
// runs once more, cold, and is the member's row.
func TestStudySeedsAndRetries(t *testing.T) {
	donor := &qt.SigmaState{}
	var mu sync.Mutex
	var calls []string
	exec := func(ctx context.Context, rc qt.RunConfig, seed *qt.SigmaState) (*qt.Result, Lineage, error) {
		mu.Lock()
		defer mu.Unlock()
		i := rc.Spec.DisorderSeed - 10
		if len(calls) == 0 && (i != 0 || seed != nil) {
			t.Errorf("first run: member %d, seeded %v; want member 0, cold", i, seed != nil)
		}
		if seed != nil && seed != donor {
			t.Errorf("member %d seeded with another state than member 0's", i)
		}
		calls = append(calls, fmt.Sprintf("%d/%v", i, seed != nil))
		// Member 2 converges only cold; member 3 converges neither way.
		converged := i < 2 || (i == 2 && seed == nil)
		return &qt.Result{Current: float64(i), Converged: converged, FinalState: donor},
			Lineage{RunID: fmt.Sprintf("run-%d", len(calls))}, nil
	}
	st := &Study{Config: fastConfig(), Members: 4, BaseSeed: 10, Exec: exec}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(calls)
	if want := []string{"0/false", "1/true", "2/false", "2/true", "3/false", "3/true"}; !slices.Equal(calls, want) {
		t.Errorf("executor calls %v, want %v", calls, want)
	}
	for i, want := range []string{report.StartCold, report.StartWarm, report.StartColdRetry, report.StartColdRetry} {
		if got := res.Members[i].Start; got != want {
			t.Errorf("member %d start %q, want %q", i, got, want)
		}
	}
	if rep := res.Report; rep.Current.N != 3 || rep.Current.Mean != 1 || rep.MemberRows[3].RunID == "" {
		t.Errorf("report: %+v over rows %+v", rep.Current, rep.MemberRows)
	}
}

// TestStudyColdRetryConverges runs the configuration of `qtsim -profile P
// -dseed 42 -ensemble 3` (P: a band-offset region over slabs 3–5 at
// +0.06 eV, doping 0.2 at −0.07 eV, strain 0.03; the default 24-atom
// structure at qtsim's coupling and bias 0.3). Seeded from member 0,
// member 2 stops unconverged at 25 iterations, and solved cold it
// converges; member 1 converges neither way and stays out of the moments,
// which then average the two physical currents (≈ 0.174) instead of
// reading −6.5.
func TestStudyColdRetryConverges(t *testing.T) {
	st := &Study{
		Config: qt.RunConfig{Spec: qt.Spec{
			Bias: 0.3, Coupling: 0.12,
			Profile: &device.Profile{
				Regions: []device.Region{{From: 3, To: 5, Offset: 0.06}},
				Doping:  &device.Doping{Fraction: 0.2, Shift: -0.07},
				Strain:  &device.Strain{Amplitude: 0.03},
			},
		}},
		Members: 3, BaseSeed: 42,
	}
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m0, m1, m2 := res.Members[0], res.Members[1], res.Members[2]
	if m0.Start != report.StartCold || !m0.Result.Converged {
		t.Fatalf("member 0: start %q, converged %v", m0.Start, m0.Result.Converged)
	}
	if m2.Start != report.StartColdRetry || !m2.Result.Converged {
		t.Errorf("member 2: start %q, converged %v; want a converged cold retry", m2.Start, m2.Result.Converged)
	}
	if m1.Result.Converged {
		t.Errorf("member 1 converged (start %q): the configuration no longer exercises an excluded member", m1.Start)
	}
	rep := res.Report
	if rep.Current.N != 2 || rep.Converged != 2 || rep.DOSMembers != 2 {
		t.Fatalf("moments over %d members (%d converged, DOS over %d), want the 2 converged", rep.Current.N, rep.Converged, rep.DOSMembers)
	}
	if want := (m0.Result.Current + m2.Result.Current) / 2; relErr(rep.Current.Mean, want) > 1e-12 || math.Abs(want-0.174) > 0.005 {
		t.Errorf("mean current %.6g, want %.6g ≈ 0.174", rep.Current.Mean, want)
	}
}
