package ensemble

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/qt"
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

func fastOpts() []qt.Option {
	return []qt.Option{qt.WithMaxIterations(5), qt.WithTolerance(1e-3)}
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
	var iterMembers sync.Map
	st := &Study{
		Config: qt.RunConfig{Spec: studySpec()}, Members: 4, BaseSeed: 100, Options: fastOpts(),
		OnIter: func(member int, _ qt.IterStats) { iterMembers.Store(member, true) },
	}
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
		if _, ok := iterMembers.Load(i); !ok {
			t.Errorf("member %d streamed no IterStats", i)
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
		st := &Study{Config: qt.RunConfig{Spec: studySpec()}, Members: 3, BaseSeed: 7, Workers: 3, Options: fastOpts()}
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
	st := &Study{Config: qt.RunConfig{Spec: studySpec()}, Members: 3, BaseSeed: 55, WarmStart: true,
		Options: []qt.Option{qt.WithMaxIterations(12), qt.WithTolerance(1e-4)}}
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
	st := &Study{Config: qt.RunConfig{Spec: studySpec()}, Members: 2, Options: fastOpts()}
	res, err := st.Run(ctx)
	if err == nil {
		t.Fatal("cancelled study reported no error")
	}
	if res == nil {
		t.Fatal("cancelled study must still return the partial result")
	}
}

// TestReduceSkipsFailedMembers: errored members appear as bare rows and
// poison no statistic.
func TestReduceSkipsFailedMembers(t *testing.T) {
	dev, err := studySpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	members := []Member{
		{Index: 0, Seed: 1, Result: &qt.Result{Converged: true, Current: 1.0, Iterations: 3}},
		{Index: 1, Seed: 2, Err: context.DeadlineExceeded},
		{Index: 2, Seed: 3, Result: &qt.Result{Converged: true, Current: 3.0, Iterations: 4}},
	}
	rep := Reduce(dev, members)
	if rep.Members != 3 || rep.Current.N != 2 || rep.Converged != 2 {
		t.Fatalf("failed member mishandled: %+v", rep.Current)
	}
	if rep.Current.Mean != 2.0 {
		t.Errorf("mean = %g, want 2", rep.Current.Mean)
	}
	if len(rep.MemberRows) != 3 {
		t.Errorf("rows = %d, want 3 (failed member still listed)", len(rep.MemberRows))
	}
}
