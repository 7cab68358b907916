package qt

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"
)

// loopDigest hashes what a run without ranks hands back of its loop: the
// per-iteration currents and the bits of the final Σ≷/Π≷ state.
func loopDigest(t *testing.T, res *Result) string {
	t.Helper()
	if res.FinalState == nil {
		t.Fatal("run without ranks returned no final state")
	}
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	put(float64(len(res.Trace)))
	for _, st := range res.Trace {
		put(st.Current)
	}
	fs := res.FinalState
	for _, d := range [][]complex128{fs.SigL.Data, fs.SigG.Data, fs.PiL.Data, fs.PiG.Data} {
		for _, v := range d {
			put(real(v))
			put(imag(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRanksAbsentLoopDigests pins a run without ranks — the one-rank
// window graph — to the deleted sequential solver: the digests are of the
// per-iteration currents and final Σ≷/Π≷ bits negf.Solver.Run produced at
// commit 218bb51, for each knob only that loop had (the baseline kernel,
// Anderson mixing, the warm start) and for fp64, mixed precision and the
// uncached boundaries. The fp64 and warm rows converge, the others stop
// at max_iterations. The fp64 DaCe kernel gives other bits on 386
// (ROADMAP item 11), so the pins hold on amd64.
func TestRanksAbsentLoopDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the fp64 DaCe kernel's bits are amd64's; %s differs (ROADMAP item 11)", runtime.GOARCH)
	}
	converge := RunConfig{Spec: smallSpec(), MaxIterations: 40, Tolerance: 1e-5}
	capped := RunConfig{Spec: smallSpec(), MaxIterations: 4, Tolerance: 1e-300}
	_, fp64 := solve(t, converge)
	check := func(name string, res *Result, want string) {
		t.Helper()
		if got := loopDigest(t, res); got != want {
			t.Errorf("%s: digest %s, want %s (%d iterations)", name, got, want, res.Iterations)
		}
	}
	check("fp64", fp64, "7d3005834ef00d6b73e45f29891cbaf2d115622c460a9f20be652ddc2d23ad51")

	rc := capped
	rc.Precision = "mixed"
	_, res := solve(t, rc)
	check("mixed", res, "dedba0dc8a0ec2aeca097290c9c04a460fc4de3bf743810ffa49285e755ee380")

	rc = capped
	rc.Kernel = "omen"
	_, res = solve(t, rc)
	check("kernel omen", res, "0421694679d53a596921ddcd4d26b3e9ceaa3a3493abf4417a4b021b49aeb976")

	rc = converge
	rc.Anderson = true
	_, res = solve(t, rc)
	check("anderson", res, "dbc54a13e43497d3e7a7b14a9a9d89d2f1cb4859c0bb37147fb61ce7374ee73d")

	rc = capped
	rc.NoBoundaryCache = true
	_, res = solve(t, rc)
	check("no_boundary_cache", res, "960745f093125699e5111d00b291fba669c5188697fd495f85e8b6da7d470749")

	rc = converge
	rc.Spec.Bias = 0.32
	_, res = solve(t, rc, WithWarmStart(fp64.FinalState))
	check("warm start", res, "603eec67fbcd6e34737236942289919ad9b53f0a61345a5e6ed3e12d1111c1c5")
}

// TestFinalStateContract pins what a run without ranks hands over as
// FinalState: after a converged or a capped run, the state after the
// last reported iteration — seeded into a one-iteration run, it yields
// bitwise the current the uninterrupted loop computes next — and nil
// after a cancellation, whose discarded extra iteration has already
// mixed into the rank's tensors.
func TestFinalStateContract(t *testing.T) {
	_, conv := solve(t, RunConfig{Spec: smallSpec(), MaxIterations: 40, Tolerance: 1e-5})
	if !conv.Converged {
		t.Fatal("reference run did not converge")
	}
	for name, c := range map[string]struct {
		res  *Result
		done int // iterations the run reported
	}{
		"converged": {conv, conv.Iterations},
		"capped":    {nil, 3},
	} {
		t.Run(name, func(t *testing.T) {
			res := c.res
			if res == nil {
				_, res = solve(t, RunConfig{Spec: smallSpec(), MaxIterations: c.done, Tolerance: 1e-300})
			}
			if res.FinalState == nil {
				t.Fatal("no final state")
			}
			_, longer := solve(t, RunConfig{Spec: smallSpec(), MaxIterations: c.done + 1, Tolerance: 1e-300})
			_, next := solve(t, RunConfig{Spec: smallSpec(), MaxIterations: 1, Tolerance: 1e-300},
				WithWarmStart(res.FinalState))
			if got, want := next.Trace[0].Current, longer.Trace[c.done].Current; got != want {
				t.Errorf("seeded iteration current %.17g, want iteration %d's %.17g", got, c.done, want)
			}
		})
	}

	res, err := cancelAfter(t, RunConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.FinalState != nil {
		t.Error("a cancelled run handed over a final state")
	}
}

// TestBallisticDigests pins the ballistic limit's observables, hashed as
// their JSON form (which round-trips every float64), to the digest the
// per-iteration kit's GF phase gave at commit 04d4b6a. Every row must
// give it: the boundary cache changes no bits, the ballistic limit is the
// one-rank world whatever the run's ranks, and it ignores a warm start.
// amd64 bits, as for the loop digests.
func TestBallisticDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned on amd64; %s differs (ROADMAP item 11)", runtime.GOARCH)
	}
	const want = "64a9caa323ccd2b8098b3953fc77214f4bd23495b7fbdb5023ee01475a0ffaf2"
	_, capped := solve(t, RunConfig{Spec: smallSpec(), MaxIterations: 2, Tolerance: 1e-300})
	for name, c := range map[string]struct {
		rc   RunConfig
		opts []Option
	}{
		"cold":              {RunConfig{Spec: smallSpec()}, nil},
		"no_boundary_cache": {RunConfig{Spec: smallSpec(), NoBoundaryCache: true}, nil},
		"ranks 2":           {RunConfig{Spec: smallSpec(), Ranks: 2}, nil},
		"ranks 2 pipeline":  {RunConfig{Spec: smallSpec(), Ranks: 2, Schedule: "pipeline"}, nil},
		"warm start":        {RunConfig{Spec: smallSpec()}, []Option{WithWarmStart(capped.FinalState)}},
	} {
		sim, err := NewFromConfig(c.rc, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := sim.Ballistic()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(obs)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(js)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}

// TestRanksAbsentErrorProbe: a run without ranks is the one-rank world,
// whose plan runs the error probe like any other, so its rows read the
// SigmaErr bits of the same configuration at ranks 1. Iteration 0's
// reading is pinned on amd64, where the fp64 reference kernel's bits are
// recorded (ROADMAP item 11).
func TestRanksAbsentErrorProbe(t *testing.T) {
	rc := RunConfig{Spec: smallSpec(), Precision: "mixed", ErrorProbe: true, MaxIterations: 3, Tolerance: 1e-300}
	_, absent := solve(t, rc)
	rc.Ranks = 1
	_, one := solve(t, rc)
	if len(absent.Trace) != 3 || len(one.Trace) != 3 {
		t.Fatalf("%d and %d rows, want 3 each", len(absent.Trace), len(one.Trace))
	}
	for i := range absent.Trace {
		a, o := absent.Trace[i].SigmaErr, one.Trace[i].SigmaErr
		if !(a > 0) || math.Float64bits(a) != math.Float64bits(o) {
			t.Errorf("iter %d: SigmaErr %#x without ranks, %#x at ranks 1", i, math.Float64bits(a), math.Float64bits(o))
		}
	}
	if got := math.Float64bits(absent.Trace[0].SigmaErr); runtime.GOARCH == "amd64" && got != 0x3f445d047daa52a6 {
		t.Errorf("iter 0: SigmaErr %#x, recorded 0x3f445d047daa52a6", got)
	}
}
