// Iteration-lag and concurrency contract of the boundary cache, tested
// from outside the package: these tests drive the real solvers (dist,
// sdfg), which import bc, so they live in bc_test.
package bc_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bc"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/sdfg"
)

// TestIterationLagTolerance is the physical license of the pipelined
// schedule: the Sancho-Rubio boundary self-energy depends only on the
// device and the (kz, E) point, never on the scattering state Σ, so a
// boundary result computed at iteration n and reused at n+1 (the
// "stale-by-one" speculation of SchedulePipeline) is not approximately
// right — it is the same result. The cached run must therefore track
// the recompute-every-iteration run within 1e-12 on every iteration's
// current, and converge in the same number of iterations.
func TestIterationLagTolerance(t *testing.T) {
	p := device.TestParams(12, 3, 2)
	p.NE = 12
	p.Nomega = 3
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode bc.Mode) *dist.Result {
		res, err := dist.Run(dev, dist.Options{Ranks: 1, Schedule: dist.ScheduleOverlap, Workers: 2,
			Loop: negf.Loop{CacheMode: mode, MaxIter: 6, Tol: 1e-300}})
		if !errors.Is(err, negf.ErrNotConverged) {
			t.Fatalf("mode %v: %v", mode, err)
		}
		return res
	}
	cached := run(bc.CacheBC)
	fresh := run(bc.NoCache)
	if len(cached.IterTrace) != len(fresh.IterTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(cached.IterTrace), len(fresh.IterTrace))
	}
	for i := range cached.IterTrace {
		c, f := cached.IterTrace[i].Current, fresh.IterTrace[i].Current
		if rel := math.Abs(c-f) / math.Abs(f); rel > 1e-12 {
			t.Errorf("iter %d: cached current %.17g vs fresh %.17g (rel %.3g)", i, c, f, rel)
		}
	}
	// Every iteration of the fresh run decimates; the cached run only
	// the first, and every later lookup is a hit.
	if c, f := cached.Load[0].BCComputes, fresh.Load[0].BCComputes; c == 0 || 6*c != f {
		t.Errorf("cache never exercised the lag: %d decimations cached, %d fresh", c, f)
	}
}

// TestCacheRaceUnderPipelinedExecutor runs the cache under the same
// access pattern the pipelined window graph produces — per-point BC
// nodes of two overlapping iterations on a multi-worker executor, where
// iteration k+1's lookups race iteration k's inserts on neighbouring
// points — and checks (under -race) that every lookup of one key
// returns one coherent result. Concurrent misses of the same key may
// both compute; last write wins and both callers get a valid result.
func TestCacheRaceUnderPipelinedExecutor(t *testing.T) {
	const points = 16
	cache := bc.NewCache(bc.CacheBC)
	mk := func(ie int) func() (*bc.Result, error) {
		return func() (*bc.Result, error) {
			m := linalg.Eye(2)
			m.Data[0] = complex(float64(ie), 0)
			return &bc.Result{Surface: m, SigmaR: m, Gamma: m}, nil
		}
	}
	var mu sync.Mutex
	got := map[int][]*bc.Result{}
	g := sdfg.New()
	prev := make([]sdfg.NodeID, points)
	for k := 0; k < 3; k++ { // three overlapping "iterations"
		for i := 0; i < points; i++ {
			ie := i
			spec := sdfg.Spec{Label: fmt.Sprintf("bc/%d/%d", k, ie), Run: func() error {
				r, err := cache.GetLead(0, 0, ie, nil, mk(ie))
				if err != nil {
					return err
				}
				mu.Lock()
				got[ie] = append(got[ie], r)
				mu.Unlock()
				return nil
			}}
			if k == 0 {
				prev[i] = g.Add(spec)
			} else {
				// The pipeline chains a point's BC nodes across
				// iterations but lets different points race freely.
				prev[i] = g.Add(spec, prev[i])
			}
		}
	}
	ex := sdfg.NewExecutor(4)
	if _, err := ex.Run(g); err != nil {
		t.Fatal(err)
	}
	for ie, rs := range got {
		if len(rs) != 3 {
			t.Fatalf("point %d resolved %d times, want 3", ie, len(rs))
		}
		for _, r := range rs {
			if real(r.Surface.Data[0]) != float64(ie) {
				t.Errorf("point %d returned another point's boundary", ie)
			}
		}
		// After the first resolution the entry is warm: later iterations
		// must share the cached pointer (that is the iteration lag).
		if rs[1] != rs[2] {
			t.Errorf("point %d: warm lookups disagree", ie)
		}
	}
	hits, misses := cache.Stats()
	if misses != points {
		t.Errorf("misses = %d, want %d (one per point)", misses, points)
	}
	if hits != 2*points {
		t.Errorf("hits = %d, want %d (two warm iterations)", hits, 2*points)
	}
}
