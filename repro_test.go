package repro

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/bc"
	"repro/internal/negf"
	"repro/internal/sse"
)

// Correctness counterparts of the ablation benchmarks: the design knobs
// the benchmarks time must not change the physics. These are the root
// package's real tests (it otherwise holds only benchmarks).

// TestAblationCacheModesAgree: the §7.1.2 boundary-condition cache is a
// pure memoization — NoCache and CacheBC must produce identical currents
// and observables, warm or cold.
func TestAblationCacheModesAgree(t *testing.T) {
	run := func(mode bc.Mode) *negf.Solver {
		dev := benchDevice()
		opts := negf.DefaultOptions()
		opts.CacheMode = mode
		s := negf.New(dev, opts)
		if err := s.GFPhase(); err != nil {
			t.Fatal(err)
		}
		s.SSEPhase()
		if err := s.GFPhase(); err != nil { // warm-cache pass
			t.Fatal(err)
		}
		return s
	}
	plain, cached := run(bc.NoCache), run(bc.CacheBC)
	if plain.Obs.CurrentL != cached.Obs.CurrentL {
		t.Errorf("cache changed the current: %.17g vs %.17g",
			cached.Obs.CurrentL, plain.Obs.CurrentL)
	}
	for i := range plain.Obs.InterfaceCurrent {
		if plain.Obs.InterfaceCurrent[i] != cached.Obs.InterfaceCurrent[i] {
			t.Errorf("cache changed interface current %d", i)
		}
	}
}

// TestAblationSSEWorkerCountInvariant: the SSE map parallelism the
// worker-scaling benchmarks sweep must not change the self-energies —
// each worker writes only atom-owned regions, so any worker count gives
// bitwise-identical output. The atom pool is min(GOMAXPROCS, atoms), read
// at call time, so GOMAXPROCS is the knob.
func TestAblationSSEWorkerCountInvariant(t *testing.T) {
	in := benchInput()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := (sse.DaCe{}).Compute(in)
	for _, workers := range []int{2, 4} {
		runtime.GOMAXPROCS(workers)
		out := (sse.DaCe{}).Compute(in)
		for name, pair := range map[string][2][]complex128{
			"SigL": {out.SigL.Data, ref.SigL.Data}, "SigG": {out.SigG.Data, ref.SigG.Data},
			"PiL": {out.PiL.Data, ref.PiL.Data}, "PiG": {out.PiG.Data, ref.PiG.Data},
		} {
			for i, v := range pair[0] {
				if v != pair[1][i] {
					t.Fatalf("workers=%d: %s[%d] differs", workers, name, i)
				}
			}
		}
	}
}

// TestAblationMixedKernelTracksFP64: the mixed-precision ablation config
// the benchmarks and Fig. 7 exercise — with normalization the kernel
// must track the fp64 result to the quantization level, without it the
// subnormal-magnitude Green's functions must visibly degrade.
func TestAblationMixedKernelTracksFP64(t *testing.T) {
	in := benchInput()
	ref := (sse.DaCe{}).Compute(in)
	mix := (sse.Mixed{Normalize: true}).Compute(in)
	var dev, scale float64
	for i, r := range ref.SigL.Data {
		if a := math.Max(math.Abs(real(r)), math.Abs(imag(r))); a > scale {
			scale = a
		}
		d := mix.SigL.Data[i] - r
		if a := math.Max(math.Abs(real(d)), math.Abs(imag(d))); a > dev {
			dev = a
		}
	}
	if rel := dev / scale; rel > 5e-3 {
		t.Errorf("normalized mixed kernel deviates by %g (tol 5e-3)", rel)
	}
}
