package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/bc"
	"repro/internal/blocktri"
	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/half"
	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/plan"
	"repro/internal/qt"
	"repro/internal/rgf"
	"repro/internal/sdfg"
	"repro/internal/sse"
)

// timing is the digest of a timing rung: min and median of N calls.
type timing struct {
	N        int
	Min, Med time.Duration
}

func (t timing) String() string {
	return fmt.Sprintf("min %v  median %v  N=%d", t.Min, t.Med, t.N)
}

// timeCalls calls f at least minN times and until budget has elapsed,
// timing every call on its own.
func timeCalls(budget time.Duration, minN int, f func()) timing {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < minN || time.Since(start) < budget {
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0))
		if len(ds) >= 1<<14 {
			break
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return timing{N: len(ds), Min: ds[0], Med: ds[len(ds)/2]}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func fillRandom(r *rand.Rand, data []complex128) {
	for i := range data {
		data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
}

// hostRungs records the facts of the machine the numbers were taken on.
// The copy bandwidth wants arrays of four times the last-level cache; a
// VM that reports the physical host's whole shared L3 (260 MB here) would
// need gigabytes, and faulting those in costs seconds, so the arrays are
// capped. Both sizes are reported: when the cap applies, read the figure
// as an upper bound on sustainable bandwidth.
func hostRungs(m *metricSet) {
	m.set("host.cores", float64(runtime.NumCPU()))
	m.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	llc := llcMB()
	m.set("host.llc_mb", llc)
	const capMB = 64.0
	arrMB := math.Max(16, math.Min(4*llc, capMB))
	n := int(arrMB * (1 << 20) / 8)
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src) // fault the destination in before timing
	t := timeCalls(0, 3, func() { copy(dst, src) })
	gbps := 2 * arrMB / 1024 / t.Min.Seconds() // read + write
	m.set("host.copy_gbps", gbps)
	m.note("host: copy of %.0f MB arrays (LLC %.1f MB, 4×LLC = %.0f MB, cap %.0f MB): %.2f GB/s read+write, %s",
		arrMB, llc, 4*llc, capMB, gbps, t)
}

// kernelRungs times the dense kernels at the device's electron block
// size: complex128 GEMM (8n³ real flops), LU + inverse.
func kernelRungs(m *metricSet, dev *device.Device, each time.Duration) {
	n := dev.P.ElBlockSize()
	r := rand.New(rand.NewPCG(1, 2))
	a, bm, c := linalg.New(n, n), linalg.New(n, n), linalg.New(n, n)
	fillRandom(r, a.Data)
	fillRandom(r, bm.Data)
	ws := linalg.NewWorkspace()
	// Small blocks finish in well under a microsecond of timer
	// resolution; repeat inside the timed call.
	reps := max(1, 200_000/(n*n*n))
	t := timeCalls(each, 20, func() {
		for i := 0; i < reps; i++ {
			ws.GEMM(1, a, linalg.NoTrans, bm, linalg.NoTrans, 0, c)
		}
	})
	gflops := 8 * float64(n*n*n) * float64(reps) / float64(t.Min.Nanoseconds())
	m.set("linalg.gemm_gflops", gflops)
	m.note("linalg: GEMM %d×%d complex128 ×%d per call: %.2f GFLOP/s at min, %s", n, n, reps, gflops, t)

	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+complex(float64(n), 0)) // keep it comfortably non-singular
	}
	inv := linalg.New(n, n)
	lu := ws.LUFor(n)
	work := linalg.New(n, n)
	ti := timeCalls(each, 20, func() {
		for i := 0; i < reps; i++ {
			work.CopyFrom(a)
			if err := lu.FactorizeInto(work); err != nil {
				panic(err) // diagonally dominant by construction
			}
			lu.InverseInto(inv)
		}
	})
	m.set("linalg.inverse_us", us(ti.Min)/float64(reps))
	m.note("linalg: LU+inverse %d×%d ×%d per call: %s", n, n, reps, ti)
}

// ballisticProblem assembles the RGF problem of one electron or phonon
// point with zero scattering self-energies and open boundaries — what
// the first iteration of a solve hands rgf.SolveInto.
func ballisticProblem(blk *blocktri.Matrix, z complex128) (*rgf.Problem, error) {
	nb := blk.NB
	a := blocktri.New(blk.Sizes)
	for i := 0; i < nb; i++ {
		linalg.Scale(a.Diag[i], -1, blk.Diag[i])
		for r := 0; r < blk.Sizes[i]; r++ {
			a.Diag[i].Set(r, r, a.Diag[i].At(r, r)+z)
		}
	}
	for i := 0; i+1 < nb; i++ {
		linalg.Scale(a.Upper[i], -1, blk.Upper[i])
		linalg.Scale(a.Lower[i], -1, blk.Lower[i])
	}
	left, err := bc.SurfaceGF(a.Diag[0].Clone(), a.Lower[0], 0, 0)
	if err != nil {
		return nil, err
	}
	right, err := bc.SurfaceGF(a.Diag[nb-1].Clone(), a.Upper[nb-2], 0, 0)
	if err != nil {
		return nil, err
	}
	sigL := make([]*linalg.Matrix, nb)
	sigG := make([]*linalg.Matrix, nb)
	for i, s := range blk.Sizes {
		sigL[i], sigG[i] = linalg.New(s, s), linalg.New(s, s)
	}
	linalg.AXPY(a.Diag[0], -1, left.SigmaR)
	linalg.AXPY(a.Diag[nb-1], -1, right.SigmaR)
	linalg.Scale(sigL[0], complex(0, 0.5), left.Gamma)
	linalg.Scale(sigG[0], complex(0, -0.5), left.Gamma)
	linalg.Scale(sigL[nb-1], complex(0, 0.5), right.Gamma)
	linalg.Scale(sigG[nb-1], complex(0, -0.5), right.Gamma)
	return &rgf.Problem{A: a, SigL: sigL, SigG: sigG}, nil
}

// solverRungs times the per-point layers on the device's own blocks:
// the cold boundary decimation, the RGF recursion on a warm workspace
// (electron and phonon), and the full point solves through
// negf.PointSolver with a warm boundary cache.
func solverRungs(m *metricSet, dev *device.Device, each time.Duration) error {
	p := dev.P
	ham := dev.Hamiltonian(0)
	dyn := dev.Dynamical(0)
	ie := p.NE / 2
	z := complex(p.Energy(ie), p.Eta)

	edge := ham.Diag[0].Clone()
	linalg.Scale(edge, -1, edge)
	for r := 0; r < edge.Rows; r++ {
		edge.Set(r, r, edge.At(r, r)+z)
	}
	tau := linalg.New(ham.Lower[0].Rows, ham.Lower[0].Cols)
	linalg.Scale(tau, -1, ham.Lower[0])
	var bcErr error
	var iters int
	tb := timeCalls(each, 5, func() {
		res, err := bc.SurfaceGF(edge.Clone(), tau, 0, 0)
		if err != nil {
			bcErr = err
			return
		}
		iters = res.Iters
	})
	if bcErr != nil {
		return fmt.Errorf("bc rung: %w", bcErr)
	}
	m.set("bc.surface_gf_us", us(tb.Min))
	m.note("bc: cold Sancho–Rubio decimation of the %d×%d edge block (%d iterations): %s", edge.Rows, edge.Rows, iters, tb)

	for _, k := range []struct {
		metric string
		blk    *blocktri.Matrix
		z      complex128
	}{
		{"rgf.solve_el_us", ham, z},
		{"rgf.solve_ph_us", dyn, func() complex128 { w := complex(p.Omega(max(1, p.Nomega/2)), p.Eta); return w * w }()},
	} {
		prob, err := ballisticProblem(k.blk, k.z)
		if err != nil {
			return fmt.Errorf("%s: %w", k.metric, err)
		}
		ws := linalg.NewWorkspace()
		var sol *rgf.Solution
		var solveErr error
		solve := func() {
			s, err := rgf.SolveInto(prob, ws, sol)
			if err != nil {
				solveErr = err
				return
			}
			sol = s
		}
		solve() // warm the workspace
		t := timeCalls(each, 10, solve)
		if solveErr != nil {
			return fmt.Errorf("%s: %w", k.metric, solveErr)
		}
		m.set(k.metric, us(t.Min))
		m.note("rgf: %s, %d blocks of %d, warm workspace: %s", k.metric, k.blk.NB, k.blk.Sizes[0], t)
		if k.metric == "rgf.solve_el_us" {
			const n = 20
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < n; i++ {
				solve()
			}
			runtime.ReadMemStats(&m1)
			m.set("rgf.allocs_per_solve", float64(m1.Mallocs-m0.Mallocs)/n)
		}
	}

	ps := negf.NewPointSolver(dev, bc.CacheBC)
	var ptErr error
	el := func() {
		if _, err := ps.SolveElectronPoint(ham, 0, ie); err != nil {
			ptErr = err
		}
	}
	iw := max(1, p.Nomega/2)
	ph := func() {
		if _, err := ps.SolvePhononPoint(dyn, 0, iw); err != nil {
			ptErr = err
		}
	}
	el() // fill the boundary cache and the scratch pool
	ph()
	te := timeCalls(each, 10, el)
	tp := timeCalls(each, 10, ph)
	if ptErr != nil {
		return fmt.Errorf("point rung: %w", ptErr)
	}
	m.set("negf.point_el_us_p50", us(te.Med))
	m.set("negf.point_ph_us_p50", us(tp.Med))
	m.note("negf: electron point solve (warm bc cache): %s", te)
	m.note("negf: phonon point solve (warm bc cache): %s", tp)
	return nil
}

// tileRungs times the strided-batched small-matrix products at the
// device's orbital count and grid batch, and the four tensor mixes of an
// iteration at full tensor size.
func tileRungs(m *metricSet, dev *device.Device, each time.Duration) {
	p := dev.P
	n, count := p.Norb, p.Nkz*p.NE
	r := rand.New(rand.NewPCG(3, 4))
	a := make([]complex128, n*n*count)
	bb := make([]complex128, n*n*count)
	c := make([]complex128, n*n*count)
	fixed := make([]complex128, n*n)
	fillRandom(r, a)
	fillRandom(r, bb)
	fillRandom(r, fixed)
	reps := max(1, 100_000/(n*n*n*count))
	t := timeCalls(each, 20, func() {
		for i := 0; i < reps; i++ {
			batch.SBSMMFixedB(c, a, fixed, n, count)
		}
	})
	flops := float64(batch.UsefulFlops(n, count)) * float64(reps)
	m.set("batch.sbsmm_gflops", flops/float64(t.Min.Nanoseconds()))
	m.note("batch: SBSMMFixedB n=%d count=%d ×%d: %.2f GFLOP/s at min, %s", n, count, reps, flops/float64(t.Min.Nanoseconds()), t)

	ha, hb := batch.EncodeHalf(a, n, count), batch.EncodeHalf(bb, n, count)
	th := timeCalls(each, 20, func() {
		for i := 0; i < reps; i++ {
			batch.SBSMMHalf(c, ha, hb)
		}
	})
	m.set("batch.sbsmm_half_gflops", flops/float64(th.Min.Nanoseconds()))
	m.note("batch: SBSMMHalf n=%d count=%d ×%d: %.2f GFLOP/s at min, %s", n, count, reps, flops/float64(th.Min.Nanoseconds()), th)

	ps := negf.NewPointSolver(dev, bc.CacheBC)
	in := sse.RandomInput(dev, 7)
	tm := timeCalls(each, 10, func() {
		ps.SigL.Mix(in.GL, 0.5)
		ps.SigG.Mix(in.GG, 0.5)
		ps.PiL.Mix(in.DL, 0.5)
		ps.PiG.Mix(in.DG, 0.5)
	})
	m.set("tensor.mix_ms", ms(tm.Min))
	m.note("tensor: four Mix calls (2×%d + 2×%d complex128): %s", len(in.GL.Data), len(in.DL.Data), tm)
}

// facadeRungs times what every run pays before its first iteration.
func facadeRungs(m *metricSet, rc qt.RunConfig, each time.Duration) error {
	var buildErr error
	tn := timeCalls(each, 5, func() {
		if _, err := qt.NewFromConfig(rc); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		return buildErr
	}
	m.set("qt.new_ms", ms(tn.Med))
	m.note("qt: NewFromConfig (validate + device build): %s", tn)
	sim, err := qt.NewFromConfig(rc)
	if err != nil {
		return err
	}
	resolved := sim.Config()
	tk := timeCalls(each, 20, func() { _ = resolved.Key() })
	m.set("qt.key_us", us(tk.Med))
	m.note("qt: RunConfig.Key: %s", tk)
	td := timeCalls(each, 5, func() {
		if _, err := rc.Spec.Build(); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		return buildErr
	}
	m.set("device.build_ms", ms(td.Med))
	m.note("device: Spec.Build: %s", td)
	return nil
}

// exchangeRungs drives one P=2 SSE exchange of the device by hand — the
// four pack / Alltoallv / unpack stages and the tile kernel of a
// decomp.DaCePlan — timing each stage on rank 0, then the observable
// Allreduce at the solver's vector size, then the half-width wire codec
// on the G≷ message.
func exchangeRungs(m *metricSet, dev *device.Device, each time.Duration) error {
	const ranks = 2
	p := dev.P
	layout := decomp.NewDaCeLayout(dev, 1, ranks)
	src := decomp.NewOMENLayout(p, ranks)
	atomSets := layout.AtomSets()
	full := sse.RandomInput(dev, 11)
	reps := max(3, int(each/(40*time.Millisecond)))

	var pack, unpack, tile, a2a []time.Duration
	var gMsg []complex128
	w := comm.NewWorld(ranks)
	err := w.Run(func(c *comm.Comm) error {
		release := linalg.ReserveWorker()
		defer release()
		local := &sse.Input{Dev: dev, GL: full.GL.Clone(), GG: full.GG.Clone(), DL: full.DL.Clone(), DG: full.DG.Clone()}
		for i := 0; i < reps; i++ {
			pl := decomp.NewDaCePlan(c.Rank(), layout, src, atomSets, local)
			var pk, un, ex time.Duration
			stage := func(packF func() [][]complex128, unpackF func([][]complex128)) {
				t0 := time.Now()
				send := packF()
				t1 := time.Now()
				recv := c.Alltoallv(send)
				t2 := time.Now()
				unpackF(recv)
				t3 := time.Now()
				pk += t1.Sub(t0)
				ex += t2.Sub(t1)
				un += t3.Sub(t2)
				if c.Rank() == 0 && gMsg == nil && len(send) > 1 {
					gMsg = append([]complex128(nil), send[1]...)
				}
			}
			stage(pl.PackG, pl.UnpackG)
			stage(pl.PackD, pl.UnpackD)
			t0 := time.Now()
			pl.ComputeTile()
			tl := time.Since(t0)
			stage(pl.PackSigma, pl.UnpackSigma)
			stage(pl.PackPi, pl.UnpackPi)
			if c.Rank() == 0 {
				pack, unpack, tile, a2a = append(pack, pk), append(unpack, un), append(tile, tl), append(a2a, ex/4)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("exchange rung: %w", err)
	}
	minOf := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[0]
	}
	m.set("decomp.pack_ms_per_iter", ms(minOf(pack)))
	m.set("decomp.unpack_ms_per_iter", ms(minOf(unpack)))
	m.set("decomp.tile_ms", ms(minOf(tile)))
	m.set("comm.alltoallv_us", us(minOf(a2a)))
	m.note("decomp: P=2 1×2 layout, rank 0, min of %d: pack %v  unpack %v  tile %v  alltoallv %v (per exchange, includes waiting for the peer)",
		reps, pack[0], unpack[0], tile[0], a2a[0])

	vec := make([]complex128, p.NE+4*p.Bnum+16)
	var red []time.Duration
	w = comm.NewWorld(ranks)
	if err := w.Run(func(c *comm.Comm) error {
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			c.Allreduce(vec)
			if c.Rank() == 0 {
				red = append(red, time.Since(t0))
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("allreduce rung: %w", err)
	}
	m.set("comm.allreduce_us", us(minOf(red)))
	m.note("comm: Allreduce of %d complex128 on a P=2 world: min %v median %v N=%d", len(vec), red[0], red[len(red)/2], len(red))

	if len(gMsg) > 0 {
		seg := full.GL.BlockLen()
		gMsg = gMsg[:len(gMsg)/seg*seg]
		var wire []complex128
		te := timeCalls(each, 10, func() { wire = half.WireEncode(gMsg, seg) })
		td := timeCalls(each, 10, func() { _ = half.WireDecode(wire, seg) })
		mb := float64(len(gMsg)) * 16 / (1 << 20)
		m.set("half.wire_encode_mbps", mb/te.Min.Seconds())
		m.set("half.wire_decode_mbps", mb/td.Min.Seconds())
		m.note("half: wire codec on the %.2f MB G≷ message (segments of %d): encode %s; decode %s", mb, seg, te, td)
	}
	return nil
}

// executorRung runs an iteration-shaped graph of no-op nodes — the point
// solves fanning into an exchange, the tile, the mix and the reduction —
// on a 2-worker executor: what the scheduler itself costs per task.
func executorRung(m *metricSet, dev *device.Device, each time.Duration) error {
	p := dev.P
	nop := func() error { return nil }
	build := func() *sdfg.Graph {
		g := sdfg.New()
		n := (len(negf.AllPairs(p)) + len(negf.AllPhononPoints(p))) / 2 // one rank's share at P=2
		solves := make([]sdfg.NodeID, 0, n)
		for i := 0; i < n; i++ {
			pre := g.Add(sdfg.Spec{Label: "bc", Run: nop})
			solves = append(solves, g.Add(sdfg.Spec{Label: "solve", Run: nop}, pre))
		}
		exch := g.Add(sdfg.Spec{Label: "exchange", Kind: sdfg.Comm, Run: nop}, solves...)
		tile := g.Add(sdfg.Spec{Label: "tile", Run: nop}, exch)
		mix := g.Add(sdfg.Spec{Label: "mix", Run: nop}, tile)
		g.Add(sdfg.Spec{Label: "reduce", Kind: sdfg.Comm, Run: nop}, tile, mix)
		return g
	}
	ex := sdfg.NewExecutor(2)
	nodes := build().Len()
	var runErr error
	t := timeCalls(each, 20, func() {
		if _, err := ex.Run(build()); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("executor rung: %w", runErr)
	}
	m.set("sdfg.ns_per_task", float64(t.Min.Nanoseconds())/float64(nodes))
	m.note("sdfg: build + run of a %d-node no-op iteration graph on 2 workers: %s", nodes, t)
	return nil
}

// planRungs times the autotuner as qt.WithAutoPlan pays it at New — the
// calibration probe alone and the whole Choose — and scores the model's
// phases prediction against a measured P=2 phases iteration
// (measuredPhasesMs ≤ 0 skips the comparison).
func planRungs(m *metricSet, dev *device.Device, measuredPhasesMs float64) error {
	cal, err := plan.Calibrate(dev)
	if err != nil {
		return fmt.Errorf("plan rung: %w", err)
	}
	m.set("plan.probe_ms", float64(cal.ProbeNs)/1e6)
	t0 := time.Now()
	pl, err := plan.Choose(dev, plan.Options{Ranks: 2})
	linalg.ResetBlocking() // Choose measures blockings through the process-wide setting
	if err != nil {
		return fmt.Errorf("plan rung: %w", err)
	}
	m.set("plan.choose_ms", ms(time.Since(t0)))
	pred := plan.Predict(dev.P, 2, cal, plan.Candidate{Schedule: dist.SchedulePhases, Workers: 1}) / 1e6
	m.note("plan: probe %.1f ms, Choose %.1f ms → %s; phases P=2 predicted %.1f ms/iter", float64(cal.ProbeNs)/1e6, ms(time.Since(t0)), pl, pred)
	if measuredPhasesMs > 0 {
		errPct := 100 * math.Abs(pred-measuredPhasesMs) / measuredPhasesMs
		m.set("plan.predict_err_pct", errPct)
		m.note("plan: phases P=2 measured %.1f ms/iter → model error %.1f%%", measuredPhasesMs, errPct)
	}
	return nil
}
