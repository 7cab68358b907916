// Package repro's root benchmarks time the solver end to end — one
// GF↔SSE iteration of the negf kit, one SSE tile, the facade's set-up and
// the self-consistent loop — plus the ablations of the paper's design choices
// (ablation_test.go) and their correctness counterparts (repro_test.go).
// The paper's tables and figures, including the kernel timings of Tables
// 7–10, are regenerated by:
//
//	go run ./cmd/paperbench -all
//
// and the raw timings here with:
//
//	go test -bench=. -benchmem
package repro

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/negf"
	"repro/internal/qt"
	"repro/internal/sse"
)

// benchDevice returns the standard scaled-down structure used by the
// measured benchmarks.
func benchDevice() *device.Device {
	p := device.TestParams(24, 4, 2)
	p.NE = 16
	p.Nomega = 4
	return device.MustBuild(p)
}

// benchInput builds a synthetic SSE input on the bench device.
func benchInput() *sse.Input { return sse.RandomInput(benchDevice(), 1) }

// BenchmarkSSETile measures one full-grid sse.DaCe tile on the device shape
// of the iv_sse_bound workload (36 atoms, 2 orbitals, 3 kz × 32 E × 4 ω)
// and on its 12-atom cut, in the steady state a run's iterations see: one
// tile value computing into one output, its per-worker scratch sized by a
// first call outside the timer. The worker count is pinned (the atom pool
// is min(GOMAXPROCS, atoms)) so the numbers are comparable across hosts;
// the CI guard requires 0 allocs/op at both sizes. The te=1, 2, 4 rows
// time the dist_schedules device's input (24 atoms, 3 kz × 24 E × 4 ω) as
// that many energy tiles on one worker, every tile per op: the §6.1.2 TE
// tiling, whose shorter rows put more of the stencil's cost into
// per-call overhead.
func BenchmarkSSETile(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	input := func(na, ne int) *sse.Input {
		p := device.TestParams(na, 6, 2)
		p.NE, p.Nomega = ne, 4
		return sse.RandomInput(device.MustBuild(p), 1)
	}
	for _, na := range []int{12, 36} {
		b.Run(fmt.Sprintf("na=%d", na), func(b *testing.B) {
			b.ReportAllocs()
			in := input(na, 32)
			tile, out := (sse.DaCe{}).NewTile(in), sse.NewOutput(in)
			tile.Compute(in, out)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tile.Compute(in, out)
			}
		})
	}
	for _, te := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("te=%d", te), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			b.ReportAllocs()
			in := input(24, 24)
			ne := in.Dev.P.NE
			tiles, outs := make([]*sse.Tile, te), make([]*sse.Output, te)
			for k := range tiles {
				tiles[k], outs[k] = (sse.DaCe{ELo: k * ne / te, EHi: (k + 1) * ne / te}).NewTile(in), sse.NewOutput(in)
				tiles[k].Compute(in, outs[k])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, tile := range tiles {
					tile.Compute(in, outs[k])
				}
			}
		})
	}
}

// BenchmarkNEGFIteration is the canonical hot-loop benchmark: one full
// sequential GF↔SSE self-consistent iteration (all electron and phonon
// RGF solves, the DaCe SSE kernel, and the Σ≷/Π≷ mixing). allocs/op here
// is the headline number of the workspace-pooled kernels — see the
// README performance section and BENCH_5.json for the tracked trajectory.
func BenchmarkNEGFIteration(b *testing.B) {
	b.ReportAllocs()
	s := negf.New(benchDevice(), negf.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.GFPhase(); err != nil {
			b.Fatal(err)
		}
		s.SSEPhase()
	}
}

// BenchmarkNew is the facade's set-up cost — qt.NewFromConfig on the two
// sequential device shapes of the committed benchmark (its setup_s):
// validation, device.Build and the profile lowering, and no boundary
// work, which belongs to the first iteration (qt.TestNewTouchesNoBoundary).
func BenchmarkNew(b *testing.B) {
	for _, c := range []struct {
		name string
		spec qt.Spec
	}{
		{"sse_bound_12x12", qt.Spec{Atoms: 36, Slabs: 6, Orbitals: 2, MomentumPoints: 3, EnergyPoints: 32, PhononModes: 4}},
		{"gf_bound_64x64", qt.Spec{Atoms: 64, Slabs: 4, Orbitals: 4, MomentumPoints: 2, EnergyPoints: 12, PhononModes: 2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rc := qt.RunConfig{Spec: c.spec, Tolerance: 1e-4, MaxIterations: 40}
			for i := 0; i < b.N; i++ {
				if _, err := qt.NewFromConfig(rc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedLoop runs the full GF↔SSE self-consistent loop —
// the end-to-end cost the paper's distributed solver pays per
// convergence step — for a fixed number of iterations: on 4 simulated
// ranks, on 2 (the bulk-synchronous phases, one worker each), on 2 with
// a window of depth 2 (the pipeline on one worker each, so its order is
// as fixed as the phases') and on the one-rank world a qt run without
// ranks executes (the overlap order on a pool of two workers), the
// phases and one-rank rows at two run lengths. CI's allocation guards
// read each pair's difference — what four more iterations allocate,
// set-up excluded — and the heap per run of the two ranks=2 rows of
// 6 iterations.
func BenchmarkDistributedLoop(b *testing.B) {
	dev := benchDevice()
	for _, c := range []struct{ ranks, depth, iters int }{{4, 1, 2}, {2, 1, 2}, {2, 1, 6}, {2, 2, 6}, {1, 1, 2}, {1, 1, 6}} {
		name := fmt.Sprintf("ranks=%d/iters=%d", c.ranks, c.iters)
		if c.depth > 1 {
			name = fmt.Sprintf("ranks=%d/depth=%d/iters=%d", c.ranks, c.depth, c.iters)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			opts := dist.Options{Ranks: c.ranks}
			switch {
			case c.ranks == 1:
				opts.Schedule, opts.Workers = dist.ScheduleOverlap, 2
			case c.depth > 1:
				opts.Schedule, opts.Workers, opts.PipelineDepth = dist.SchedulePipeline, 1, c.depth
			}
			opts.MaxIter = c.iters
			opts.Tol = 1e-300
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := dist.Run(dev, opts)
				if err != nil && !errors.Is(err, negf.ErrNotConverged) {
					b.Fatal(err)
				}
				bytes = res.Comm.BytesSent
			}
			b.ReportMetric(float64(bytes), "bytes/run")
		})
	}
}
