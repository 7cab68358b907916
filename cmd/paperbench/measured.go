package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/batch"
	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/negf"
	"repro/internal/qt"
	"repro/internal/sse"
)

// timeIt runs f repeatedly until ~80 ms elapse and returns the per-call time.
func timeIt(f func()) time.Duration {
	f() // warm-up
	var n int
	start := time.Now()
	for time.Since(start) < 80*time.Millisecond {
		f()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// measuredSpec is the scaled-down structure used by the measured tables.
func measuredSpec(quick bool) qt.Spec {
	spec := qt.Spec{Atoms: 24, Slabs: 4, Orbitals: 3, EnergyPoints: 24, PhononModes: 4}
	if quick {
		spec = qt.Spec{Atoms: 12, Slabs: 3, Orbitals: 2, EnergyPoints: 12, PhononModes: 3}
	}
	return spec
}

// measuredDevice builds the scaled-down device used by the measured tables.
func measuredDevice(quick bool) *device.Device {
	dev, err := measuredSpec(quick).Build()
	if err != nil {
		panic(err)
	}
	return dev
}

// kernelTrace runs the self-consistent loop on spec's device — the
// one-rank window graph — with SSE kernel k for a fixed iteration count
// and returns the per-iteration currents.
func kernelTrace(spec qt.Spec, iters int, k sse.Kernel) []float64 {
	dev, err := spec.Build()
	if err != nil {
		panic(err)
	}
	res, err := dist.Run(dev, dist.Options{Ranks: 1, Schedule: dist.ScheduleOverlap, Workers: runtime.GOMAXPROCS(0),
		Loop: negf.Loop{Kernel: k, MaxIter: iters, Tol: 1e-300}})
	if err != nil && !errors.Is(err, negf.ErrNotConverged) {
		panic(err)
	}
	tr := make([]float64, len(res.IterTrace))
	for i, it := range res.IterTrace {
		tr[i] = it.Current
	}
	return tr
}

// runTable6 — CUDA-stream sweep (discrete-event model of the GF pipeline).
func runTable6(bool) {
	header("Table 6: Streams in Green's Functions (copy/compute overlap model)")
	tasks := gfTaskSet(64, 9.32, 0.082)
	row("Streams", "Time [s]", "(paper [s])")
	paper := map[int]float64{1: 10.07, 2: 9.94, 4: 9.86, 16: 9.61, 32: 9.32}
	for _, r := range sweep(tasks, []int{1, 2, 4, 16, 32}) {
		row(fmt.Sprintf("%d", r.streams), f2(r.timeSec), f2(paper[r.streams]))
	}
}

// runTable7 — sparse/dense multiplication methods on Hamiltonian-shaped
// blocks (measured on this CPU; the paper measures P100/V100).
func runTable7(quick bool) {
	header("Table 7: Matrix Multiplication Performance (measured, CPU)")
	n := 256
	if quick {
		n = 128
	}
	rng := rand.New(rand.NewSource(7))
	// Off-diagonal Hamiltonian blocks couple each atom to the few
	// neighbours in the next slab: ~5% density.
	spD := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.05 {
				spD.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	dn := linalg.New(n, n)
	for i := range dn.Data {
		dn.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	sp := fromDense(spD, 0)
	spc := sp.toCSC()

	row("Method", "NN", "NT", "TN", "")
	gNN := timeIt(func() { linalg.GEMM(1, spD, linalg.NoTrans, dn, linalg.NoTrans, 0, linalg.New(n, n)) })
	gNT := timeIt(func() { linalg.GEMM(1, spD, linalg.NoTrans, dn, linalg.Trans, 0, linalg.New(n, n)) })
	gTN := timeIt(func() { linalg.GEMM(1, spD, linalg.Trans, dn, linalg.NoTrans, 0, linalg.New(n, n)) })
	row("GEMM (dense)", gNN.String(), gNT.String(), gTN.String(), "")
	cNN := timeIt(func() { csrmm(sp, linalg.NoTrans, dn, linalg.NoTrans) })
	cNT := timeIt(func() { csrmm(sp, linalg.NoTrans, dn, linalg.Trans) })
	cTN := timeIt(func() { csrmm(sp, linalg.Trans, dn, linalg.NoTrans) })
	row("CSRMM2", cNN.String(), cNT.String(), cTN.String(), "")
	gi := timeIt(func() { gemmi(dn, spc) })
	row("GEMMI", gi.String(), "-", "-", "")
	best := min(cNN, cNT, cTN)
	fmt.Printf("\nshape check: sparse kernels beat dense GEMM %.1fx (paper: 6-10x on GPUs).\n",
		float64(gNN)/float64(best))
	fmt.Println("(on GPUs the paper finds NT fastest and TN slowest; CPU cache behaviour reorders the modes)")
}

// runTable8 — the F·gR·E three-matrix product of the RGF inner loop.
func runTable8(quick bool) {
	header("Table 8: 3-Matrix Multiplication Performance (measured, CPU)")
	n := 256
	if quick {
		n = 128
	}
	rng := rand.New(rand.NewSource(8))
	mkSparse := func() *linalg.Matrix {
		m := linalg.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.05 {
					m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
				}
			}
		}
		return m
	}
	fD, eD := mkSparse(), mkSparse()
	g := linalg.New(n, n)
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	f := fromDense(fD, 0)
	eCSC := fromDense(eD, 0).toCSC()
	eT := fromDense(eD, 0).transpose()

	t1 := timeIt(func() {
		fg := linalg.New(n, n)
		linalg.GEMM(1, fD, linalg.NoTrans, g, linalg.NoTrans, 0, fg)
		linalg.GEMM(1, fg, linalg.NoTrans, eD, linalg.NoTrans, 0, linalg.New(n, n))
	})
	t2 := timeIt(func() {
		fg := csrmm(f, linalg.NoTrans, g, linalg.NoTrans)
		gemmi(fg, eCSC)
	})
	t3 := timeIt(func() {
		fg := csrmm(f, linalg.NoTrans, g, linalg.NoTrans)
		csrmm(eT, linalg.NoTrans, fg, linalg.Trans)
	})
	row("Approach", "Time", "vs best", "")
	best := min(t1, t2, t3)
	row("GEMM/GEMM", t1.String(), fmt.Sprintf("%.1fx", float64(t1)/float64(best)), "")
	row("CSRMM2/GEMMI", t2.String(), fmt.Sprintf("%.1fx", float64(t2)/float64(best)), "")
	row("CSRMM2/CSRMM2", t3.String(), fmt.Sprintf("%.1fx", float64(t3)/float64(best)), "")
	fmt.Println("(paper: CSRMM2/CSRMM2 best, 5.10-9.74x over the alternatives)")
}

// runTable9 — SBSMM vs padded vendor-style batched GEMM.
func runTable9(quick bool) {
	header("Table 9: Strided Matrix Multiplication Performance (measured, CPU)")
	n, count := 12, 8192
	if quick {
		count = 2048
	}
	rng := rand.New(rand.NewSource(9))
	mk := func(scale float64) []complex128 {
		b := make([]complex128, n*n*count)
		for i := range b {
			b[i] = complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
		}
		return b
	}
	a, b := mk(1e-4), mk(1e-4)
	c := make([]complex128, n*n*count)

	tPad := timeIt(func() { sbsmmPadded(c, a, b, n, count) })
	tSBS := timeIt(func() { sbsmm(c, a, b, n, count) })
	ha, hb := batch.EncodeHalf(a, n, count), batch.EncodeHalf(b, n, count)
	tHalf := timeIt(func() { batch.SBSMMHalf(c, ha, hb) })

	useful := float64(batch.UsefulFlops(n, count))
	row("Kernel", "Time", "Gflop/s", "useful/executed", "")
	row("Padded (vendor)", tPad.String(),
		f1(useful/tPad.Seconds()/1e9),
		fmt.Sprintf("%.1f%%", 100*useful/float64(paddedFlops(count))), "")
	row("DaCe SBSMM", tSBS.String(), f1(useful/tSBS.Seconds()/1e9), "100%", "")
	row("SBSMM fp16", tHalf.String(), f1(useful/tHalf.Seconds()/1e9), "100%", "")
	fmt.Printf("\nSBSMM vs padded speedup: %.2fx (paper: 5.76x fp64, 31x fp16 incl. Tensor Cores)\n",
		tPad.Seconds()/tSBS.Seconds())
}

// runTable10 — single-node GF and SSE phase runtimes per variant.
func runTable10(quick bool) {
	header("Table 10: Single-Node Performance, GF and SSE phases (measured)")
	dev := measuredDevice(quick)
	s := negf.New(dev, negf.DefaultOptions())
	gfTime := timeIt(func() {
		if err := s.GFPhase(); err != nil {
			panic(err)
		}
	})
	in := &sse.Input{Dev: dev, GL: s.GL, GG: s.GG, DL: s.DL, DG: s.DG}
	outO := (sse.OMEN{}).Compute(in)
	outD := (sse.DaCe{}).Compute(in)
	tOMEN := timeIt(func() { (sse.OMEN{}).Compute(in) })
	tDaCe := timeIt(func() { (sse.DaCe{}).Compute(in) })
	row("Variant", "GF", "SSE", "SSE matmuls", "")
	row("OMEN kernel", gfTime.String(), tOMEN.String(), fmt.Sprintf("%d", outO.Stats.MatMuls), "")
	row("DaCe kernel", gfTime.String(), tDaCe.String(), fmt.Sprintf("%d", outD.Stats.MatMuls), "")
	fmt.Printf("\nSSE speedup DaCe over OMEN: %.2fx (paper: 9.97x single node, up to 4.8x vs cuBLAS)\n",
		tOMEN.Seconds()/tDaCe.Seconds())
	fmt.Println("(paper also reports a pure-Python baseline 1,000x slower; interpreted dispatch has no Go analogue)")
}

// runCommMeasured — measured SSE communication volumes on the simulated
// MPI runtime, the executable counterpart of Tables 4–5: both
// decompositions exchange the same synthetic input, the DaCe bytes sit
// next to the analytic model, and each decomposition's Σ≷ is checked
// against the sequential kernel. The DaCe tiles compute Σ≷ in the
// sequential kernel's order, so its deviation reads exactly 0.
func runCommMeasured(quick bool) {
	header("Measured SSE Communication (simulated MPI, scaled-down device)")
	dev := measuredDevice(quick)
	in := sse.RandomInput(dev, 42)
	seq := (sse.DaCe{}).Compute(in)

	row("Ranks", "OMEN bytes", "OMEN calls", "OMEN max|Σ−seq|",
		"DaCe bytes", "DaCe model", "DaCe a2a", "DaCe max|Σ−seq|", "reduction")
	for _, ranks := range []int{2, 4, 8} {
		outO, so, err := decomp.RunOMEN(comm.NewWorld(ranks), in, ranks)
		if err != nil {
			panic(err)
		}
		ta := ranks
		te := 1
		if ranks%2 == 0 {
			ta, te = ranks/2, 2
		}
		outD, sd, err := decomp.RunDaCe(comm.NewWorld(ranks), in, ta, te)
		if err != nil {
			panic(err)
		}
		calls := so.Collectives["Bcast"] + so.Collectives["Reduce"] + so.Sends
		row(fmt.Sprintf("%d", ranks),
			fmt.Sprintf("%d", so.BytesSent), fmt.Sprintf("%d", calls),
			fmt.Sprintf("%.2e", maxDiff(outO, seq)),
			fmt.Sprintf("%d", sd.BytesSent),
			fmt.Sprintf("%.0f", model.DaCeCommVolume(dev.P, ta, te)),
			fmt.Sprintf("%d", sd.Collectives["Alltoallv"]),
			fmt.Sprintf("%.2e", maxDiff(outD, seq)),
			fmt.Sprintf("%.1fx", float64(so.BytesSent)/float64(sd.BytesSent)))
	}
	fmt.Println("\n(DaCe model = model.DaCeCommVolume: it charges each rank its full tile")
	fmt.Println("halo, including the locally owned share, so the measured off-rank bytes stay below it.)")
	fmt.Println("\n§7.1.8 bandwidth-bound check (model):")
	fmt.Printf("  D≷/Π≷ exchange at %.1f%% of the injection bound (paper: 84.57%%)\n", alltoallUtilization*100)
	fmt.Printf("  G≷/Σ≷ exchange at %.1f%% (paper: 42.32%%)\n", alltoallUtilizationG*100)
}

// maxDiff is the largest elementwise |a−b| over Σ≷. (Π≷ sums over the
// energy axis, which a TE > 1 tiling splits into partial sums, so it
// agrees to rounding only.)
func maxDiff(a, b *sse.Output) float64 {
	var mx float64
	for _, p := range [][2][]complex128{{a.SigL.Data, b.SigL.Data}, {a.SigG.Data, b.SigG.Data}} {
		for i := range p[0] {
			mx = max(mx, cmplx.Abs(p[0][i]-p[1][i]))
		}
	}
	return mx
}

// unitsScaled wraps an SSE kernel, pre-scaling the Green's-function
// tensors by a units factor and algebraically undoing the (quadratic)
// effect on the outputs. For exact arithmetic this is an identity; it
// places the kernel inputs at the tiny magnitudes the production code's
// unit system produces (Fig. 7a shows Σ≷ values down to 1e-21), which is
// the regime where unnormalized fp16 collapses.
type unitsScaled struct {
	inner sse.Kernel
	scale float64
}

func (u unitsScaled) Name() string { return u.inner.Name() + " (units-scaled)" }

func (u unitsScaled) Compute(in *sse.Input) *sse.Output {
	s := complex(u.scale, 0)
	scaled := &sse.Input{Dev: in.Dev,
		GL: in.GL.Clone(), GG: in.GG.Clone(), DL: in.DL.Clone(), DG: in.DG.Clone()}
	for _, buf := range [][]complex128{scaled.GL.Data, scaled.GG.Data, scaled.DL.Data, scaled.DG.Data} {
		for i := range buf {
			buf[i] *= s
		}
	}
	out := u.inner.Compute(scaled)
	inv := complex(1/(u.scale*u.scale), 0)
	for _, buf := range [][]complex128{out.SigL.Data, out.SigG.Data, out.PiL.Data, out.PiG.Data} {
		for i := range buf {
			buf[i] *= inv
		}
	}
	return out
}

// runFigure7 — mixed-precision SSE distribution and convergence.
func runFigure7(quick bool) {
	header("Figure 7: Double- vs Half-Precision SSE")
	spec := qt.Spec{Atoms: 16, Slabs: 4, Orbitals: 2, EnergyPoints: 20, PhononModes: 3, Coupling: 0.12}
	if quick {
		spec = qt.Spec{Atoms: 12, Slabs: 3, Orbitals: 2, EnergyPoints: 12, PhononModes: 3, Coupling: 0.12}
	}
	iters := 14

	// All three variants see inputs at the production unit scale (~1e-8
	// of our synthetic magnitudes) so the fp16 dynamic-range effects of
	// §5.4 are exercised exactly as in the paper.
	const units = 1e-7
	ref := kernelTrace(spec, iters, unitsScaled{sse.DaCe{}, units})
	norm := kernelTrace(spec, iters, unitsScaled{sse.Mixed{Normalize: true}, units})
	raw := kernelTrace(spec, iters, unitsScaled{sse.Mixed{Normalize: false}, units})

	fmt.Println("(b) Convergence of the electronic current (a.u.):")
	row("Iter", "64-bit", "16-bit norm.", "16-bit unnorm.", "rel.err norm", "rel.err unnorm")
	for i := range ref {
		row(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.8f", ref[i]),
			fmt.Sprintf("%.8f", norm[i]),
			fmt.Sprintf("%.8f", raw[i]),
			fmt.Sprintf("%.2e", math.Abs(norm[i]-ref[i])/math.Abs(ref[i])),
			fmt.Sprintf("%.2e", math.Abs(raw[i]-ref[i])/math.Abs(ref[i])))
	}
	last := len(ref) - 1
	fmt.Printf("\nfinal relative difference: normalized %.2e (paper: 1.2e-6), unnormalized %.2e (paper: 3e-3)\n",
		math.Abs(norm[last]-ref[last])/math.Abs(ref[last]),
		math.Abs(raw[last]-ref[last])/math.Abs(ref[last]))

	// (a) Output distribution: magnitude range of Σ< values per variant.
	dev, err := spec.Build()
	if err != nil {
		panic(err)
	}
	s := negf.New(dev, negf.DefaultOptions())
	if err := s.GFPhase(); err != nil {
		panic(err)
	}
	in := &sse.Input{Dev: dev, GL: s.GL, GG: s.GG, DL: s.DL, DG: s.DG}
	stats := func(k sse.Kernel) (mn, mx float64) {
		out := k.Compute(in)
		mn = math.Inf(1)
		for _, v := range out.SigL.Data {
			for _, x := range []float64{math.Abs(real(v)), math.Abs(imag(v))} {
				if x == 0 {
					continue
				}
				if x < mn {
					mn = x
				}
				if x > mx {
					mx = x
				}
			}
		}
		return mn, mx
	}
	fmt.Println("\n(a) Σ< non-zero magnitude range:")
	for _, k := range []sse.Kernel{sse.DaCe{}, sse.Mixed{Normalize: true}, sse.Mixed{Normalize: false}} {
		mn, mx := stats(k)
		fmt.Printf("  %-24s [%.3e, %.3e]\n", k.Name(), mn, mx)
	}
}

// runFigure11 — electro-thermal observables of a converged simulation.
func runFigure11(quick bool) {
	header("Figure 11: Electro-Thermal Simulation of the FinFET (measured)")
	spec := qt.Spec{Atoms: 24, Slabs: 6, Orbitals: 2, EnergyPoints: 24, PhononModes: 4, Coupling: 0.12}
	if quick {
		spec = qt.Spec{Atoms: 16, Slabs: 4, Orbitals: 2, EnergyPoints: 16, PhononModes: 3, Coupling: 0.12}
	}
	sim, err := qt.NewFromConfig(qt.RunConfig{Spec: spec, MaxIterations: 20})
	if err != nil {
		panic(err)
	}
	run, err := sim.Start(context.Background())
	if err != nil {
		panic(err)
	}
	res, err := run.Wait()
	if err != nil {
		panic(err)
	}
	if !res.Converged {
		fmt.Printf("(loop: not converged after %d iterations)\n", res.Iterations)
	}
	dev, obs := sim.Device, res.Observables

	fmt.Printf("contact currents: IL=%.6g IR=%.6g (conservation: %.1e)\n",
		obs.CurrentL, obs.CurrentR, math.Abs(obs.CurrentL+obs.CurrentR)/math.Abs(obs.CurrentL))
	fmt.Printf("energy balance: electron loss %.4g vs phonon gain %.4g (ratio %.2f)\n",
		obs.ElectronEnergyLoss, obs.PhononEnergyGain, obs.PhononEnergyGain/obs.ElectronEnergyLoss)

	fmt.Println("\nEnergy currents along x (left panel): electron, phonon, total")
	row("Interface", "Electron", "Phonon", "Total")
	tot := totalEnergyCurrent(obs)
	for i := range tot {
		row(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.6g", obs.InterfaceEnergyCurrent[i]),
			fmt.Sprintf("%.6g", obs.PhononInterfaceEnergy[i]),
			fmt.Sprintf("%.6g", tot[i]))
	}

	fmt.Println("\nSpectral current (middle panel), per energy:")
	for ie, j := range obs.SpectralCurrent {
		if math.Abs(j) < 1e-9 {
			continue
		}
		bar := int(40 * j / maxAbs(obs.SpectralCurrent))
		fmt.Printf("  E=%+.2f eV %-42s %.4g\n", dev.P.Energy(ie), hbar(bar), j)
	}

	fmt.Println("\nConduction-band-edge profile from the LDOS (middle panel backdrop):")
	edges := bandEdge(obs, dev.P, 0.1)
	for i, e := range edges {
		fmt.Printf("  slab %d: band edge ≈ %+.2f eV\n", i, e)
	}

	fmt.Println("\nTemperature and dissipated power per slab (right panels):")
	row("Slab", "T [K]", "P_diss")
	temps := obs.SlabTemperature(dev)
	for i, t := range temps {
		row(fmt.Sprintf("%d", i), f1(t), fmt.Sprintf("%.4g", obs.DissipatedPower[i]))
	}
	fmt.Println("(paper: heat generated near the channel end, Tmax inside the channel, energy conserved)")
}

// bandEdge returns, per slab, the lowest energy at which the LDOS exceeds
// the given fraction of its slab maximum — a discrete estimate of the
// conduction-band-edge profile drawn in Fig. 11 (middle).
func bandEdge(o *negf.Observables, p device.Params, frac float64) []float64 {
	out := make([]float64, len(o.LDOS))
	for i, dos := range o.LDOS {
		var mx float64
		for _, v := range dos {
			if v > mx {
				mx = v
			}
		}
		out[i] = p.Energy(p.NE - 1)
		for n, v := range dos {
			if v >= frac*mx {
				out[i] = p.Energy(n)
				break
			}
		}
	}
	return out
}

// totalEnergyCurrent returns the combined electron+phonon energy-current
// profile; its flatness is the Fig. 11 conservation statement.
func totalEnergyCurrent(o *negf.Observables) []float64 {
	out := make([]float64, len(o.InterfaceEnergyCurrent))
	for i := range out {
		out[i] = o.InterfaceEnergyCurrent[i] + o.PhononInterfaceEnergy[i]
	}
	return out
}

func maxAbs(v []float64) float64 {
	var m float64 = 1e-300
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

func hbar(n int) string {
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	s := ""
	for i := 0; i < n; i++ {
		s += "#"
	}
	return s
}
