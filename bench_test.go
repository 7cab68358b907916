// Package repro's root benchmark harness: one benchmark per paper table
// and figure. Analytic artifacts evaluate the §6.1 performance model;
// measured artifacts execute the real kernels on scaled-down synthetic
// devices. Regenerate everything human-readable with:
//
//	go run ./cmd/paperbench -all
//
// and the raw timings with:
//
//	go test -bench=. -benchmem
package repro

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/batch"
	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/negf"
	"repro/internal/qt"
	"repro/internal/rgf"
	"repro/internal/sparse"
	"repro/internal/sse"
	"repro/internal/staging"
	"repro/internal/stream"
	"repro/internal/tensor"
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
func benchInput() *sse.Input {
	dev := benchDevice()
	p := dev.P
	rng := rand.New(rand.NewSource(1))
	gl := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
	gg := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
	nbp1 := dev.MaxNb() + 1
	dl := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
	dg := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
	for _, buf := range [][]complex128{gl.Data, gg.Data, dl.Data, dg.Data} {
		for i := range buf {
			buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return &sse.Input{Dev: dev, GL: gl, GG: gg, DL: dl, DG: dg}
}

// ── Table 3: per-kernel computational load ──

// BenchmarkTable3_FlopModel evaluates the analytic per-iteration flop
// model at paper scale (all Nkz columns).
func BenchmarkTable3_FlopModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.Table3([]int{3, 5, 7, 9, 11})
	}
}

// BenchmarkTable3_RGFKernel measures the RGF kernel the flop model
// describes, on a scaled-down block-tridiagonal problem.
func BenchmarkTable3_RGFKernel(b *testing.B) {
	b.ReportAllocs()
	dev := benchDevice()
	h := dev.Hamiltonian(0)
	a := h.Clone()
	a.Scale(-1)
	for i := 0; i < a.NB; i++ {
		for r := 0; r < a.Sizes[i]; r++ {
			a.Diag[i].Set(r, r, a.Diag[i].At(r, r)+complex(0.4, 1e-3))
		}
	}
	sig := make([]*linalg.Matrix, a.NB)
	prob := &rgf.Problem{A: a, SigL: sig, SigG: sig}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgf.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

// ── Tables 4–5: communication volumes ──

// BenchmarkTable4_CommModel evaluates the weak-scaling volume model.
func BenchmarkTable4_CommModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.Table4([]int{3, 5, 7, 9, 11})
	}
}

// BenchmarkTable4_MeasuredOMEN runs the original decomposition's SSE
// exchange for real on the simulated fabric and reports bytes moved.
func BenchmarkTable4_MeasuredOMEN(b *testing.B) {
	b.ReportAllocs()
	in := benchInput()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		_, st, err := decomp.RunOMEN(comm.NewWorld(4), in, 4)
		if err != nil {
			b.Fatal(err)
		}
		bytes = st.BytesSent
	}
	b.ReportMetric(float64(bytes), "bytes/iter")
}

// BenchmarkTable4_MeasuredDaCe runs the communication-avoiding exchange.
func BenchmarkTable4_MeasuredDaCe(b *testing.B) {
	b.ReportAllocs()
	in := benchInput()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		_, st, err := decomp.RunDaCe(comm.NewWorld(4), in, 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		bytes = st.BytesSent
	}
	b.ReportMetric(float64(bytes), "bytes/iter")
}

// BenchmarkTable5_CommModel evaluates the strong-scaling volume model.
func BenchmarkTable5_CommModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.Table5([]int{224, 448, 896, 1792, 2688})
	}
}

// ── Table 6: stream pipelining ──

func BenchmarkTable6_StreamSweep(b *testing.B) {
	b.ReportAllocs()
	tasks := stream.GFTaskSet(64, 9.32, 0.082)
	for i := 0; i < b.N; i++ {
		_ = stream.Sweep(tasks, []int{1, 2, 4, 16, 32})
	}
}

// ── Table 7: multiplication methods ──

func benchSparsePair(n int) (*linalg.Matrix, *linalg.Matrix) {
	rng := rand.New(rand.NewSource(7))
	sp := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.05 {
				sp.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	dn := linalg.New(n, n)
	for i := range dn.Data {
		dn.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return sp, dn
}

func BenchmarkTable7_DenseGEMM(b *testing.B) {
	b.ReportAllocs()
	sp, dn := benchSparsePair(192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = linalg.Mul(sp, dn)
	}
}

func BenchmarkTable7_CSRMM_NN(b *testing.B) {
	b.ReportAllocs()
	spD, dn := benchSparsePair(192)
	sp := sparse.FromDense(spD, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sparse.CSRMM(sp, linalg.NoTrans, dn, linalg.NoTrans)
	}
}

func BenchmarkTable7_CSRMM_NT(b *testing.B) {
	b.ReportAllocs()
	spD, dn := benchSparsePair(192)
	sp := sparse.FromDense(spD, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sparse.CSRMM(sp, linalg.NoTrans, dn, linalg.Trans)
	}
}

func BenchmarkTable7_CSRMM_TN(b *testing.B) {
	b.ReportAllocs()
	spD, dn := benchSparsePair(192)
	sp := sparse.FromDense(spD, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sparse.CSRMM(sp, linalg.Trans, dn, linalg.NoTrans)
	}
}

func BenchmarkTable7_GEMMI(b *testing.B) {
	b.ReportAllocs()
	spD, dn := benchSparsePair(192)
	spc := sparse.FromDense(spD, 0).ToCSC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sparse.GEMMI(dn, spc)
	}
}

// ── Table 8: the F·gR·E three-matrix product ──

func BenchmarkTable8_GEMMGEMM(b *testing.B) {
	b.ReportAllocs()
	f, g := benchSparsePair(192)
	e, _ := benchSparsePair(192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = linalg.Mul(linalg.Mul(f, g), e)
	}
}

func BenchmarkTable8_CSRMM_GEMMI(b *testing.B) {
	b.ReportAllocs()
	fD, g := benchSparsePair(192)
	eD, _ := benchSparsePair(192)
	f := sparse.FromDense(fD, 0)
	e := sparse.FromDense(eD, 0).ToCSC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fg := sparse.CSRMM(f, linalg.NoTrans, g, linalg.NoTrans)
		_ = sparse.GEMMI(fg, e)
	}
}

func BenchmarkTable8_CSRMM_CSRMM(b *testing.B) {
	b.ReportAllocs()
	fD, g := benchSparsePair(192)
	eD, _ := benchSparsePair(192)
	f := sparse.FromDense(fD, 0)
	eT := sparse.FromDense(eD, 0).Transpose()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fg := sparse.CSRMM(f, linalg.NoTrans, g, linalg.NoTrans)
		_ = sparse.CSRMM(eT, linalg.NoTrans, fg, linalg.Trans)
	}
}

// ── Table 9: SBSMM vs padded batched GEMM ──

func benchBatch(n, count int) (a, bb, c []complex128) {
	rng := rand.New(rand.NewSource(9))
	mk := func() []complex128 {
		v := make([]complex128, n*n*count)
		for i := range v {
			v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return v
	}
	return mk(), mk(), make([]complex128, n*n*count)
}

func BenchmarkTable9_Padded(b *testing.B) {
	b.ReportAllocs()
	a, bb, c := benchBatch(12, 4096)
	b.SetBytes(int64(len(a) * 16 * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.SBSMMPadded(c, a, bb, 12, 4096)
	}
}

func BenchmarkTable9_SBSMM(b *testing.B) {
	b.ReportAllocs()
	a, bb, c := benchBatch(12, 4096)
	b.SetBytes(int64(len(a) * 16 * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.SBSMM(c, a, bb, 12, 4096)
	}
}

func BenchmarkTable9_SBSMMHalf(b *testing.B) {
	b.ReportAllocs()
	a, bb, c := benchBatch(12, 4096)
	ha := batch.EncodeHalf(a, 12, 4096)
	hb := batch.EncodeHalf(bb, 12, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.SBSMMHalf(c, ha, hb)
	}
}

// ── Table 10: single-node GF and SSE phases ──

func BenchmarkTable10_GFPhase(b *testing.B) {
	b.ReportAllocs()
	s := negf.New(benchDevice(), negf.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.GFPhase(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable10_SSE_OMEN(b *testing.B) {
	b.ReportAllocs()
	in := benchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = (sse.OMEN{}).Compute(in)
	}
}

func BenchmarkTable10_SSE_DaCe(b *testing.B) {
	b.ReportAllocs()
	in := benchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = (sse.DaCe{}).Compute(in)
	}
}

// BenchmarkSSETile measures one full-grid sse.DaCe tile on the device shape
// of the iv_sse_bound workload (36 atoms, 2 orbitals, 3 kz × 32 E × 4 ω)
// and on its 12-atom cut. The worker count is pinned (the atom pool is
// min(GOMAXPROCS, atoms)) so allocs/op is comparable across hosts: scratch
// is per worker, so the CI guard requires
// the two sizes to report the same allocs/op (give or take a stray runtime
// allocation).
func BenchmarkSSETile(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, na := range []int{12, 36} {
		b.Run(fmt.Sprintf("na=%d", na), func(b *testing.B) {
			b.ReportAllocs()
			p := device.TestParams(na, 6, 2)
			p.NE, p.Nomega = 32, 4
			in := sse.RandomInput(device.MustBuild(p), 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = (sse.DaCe{}).Compute(in)
			}
		})
	}
}

// ── Tables 11–12 and Figs 8–9: scaling model ──

func BenchmarkTable11_Breakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.Table11()
	}
}

func BenchmarkTable12_PerAtom(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.Table12()
	}
}

func BenchmarkFigure8_ScalingModel(b *testing.B) {
	b.ReportAllocs()
	m := model.Summit()
	for i := 0; i < b.N; i++ {
		_ = model.StrongScaling(m, []int{114, 500, 1000, 1400})
		_ = model.WeakScaling(m, []int{3, 5, 7, 9, 11})
	}
}

func BenchmarkFigure9_ExtremeScale(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.Figure9([]int{3420, 6840, 13680, 27360})
	}
}

// ── Fig 7: mixed-precision SSE ──

func BenchmarkFigure7_SSEMixed(b *testing.B) {
	b.ReportAllocs()
	in := benchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = (sse.Mixed{Normalize: true}).Compute(in)
	}
}

// ── Fig 10: roofline ──

func BenchmarkFigure10_Roofline(b *testing.B) {
	b.ReportAllocs()
	p := device.Large(21)
	for i := 0; i < b.N; i++ {
		_ = model.Roofline(p)
	}
}

// ── Fig 11: the full self-consistent electro-thermal solve ──

func BenchmarkFigure11_SelfConsistentIteration(b *testing.B) {
	b.ReportAllocs()
	dev := benchDevice()
	s := negf.New(dev, negf.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.GFPhase(); err != nil {
			b.Fatal(err)
		}
		s.SSEPhase()
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

// ── distributed end-to-end loop (internal/dist) ──

// BenchmarkDistributedLoop runs the full GF↔SSE self-consistent loop on
// 4 simulated ranks for two iterations — the end-to-end cost the paper's
// distributed solver pays per convergence step.
func BenchmarkDistributedLoop(b *testing.B) {
	b.ReportAllocs()
	dev := benchDevice()
	opts := dist.DefaultOptions(4)
	opts.MaxIter = 2
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
}

// ── §7.1.1: data ingestion ──

func BenchmarkIngestion_ChunkedBcast(b *testing.B) {
	b.ReportAllocs()
	data := make([]complex128, 1<<14)
	b.SetBytes(int64(len(data) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := staging.ChunkedBcast(comm.NewWorld(8), data, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
