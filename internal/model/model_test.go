package model

import (
	"math"
	"testing"

	"repro/internal/device"
)

// within asserts relative agreement with a published paper value.
func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > relTol {
		t.Errorf("%s: got %.4g, paper %.4g (rel err %.3f > %.3f)", name, got, want, rel, relTol)
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	// Published Table 3 (Pflop), "Small" structure.
	want := map[int][4]float64{
		3:  {8.45, 52.95, 24.41, 12.38},
		5:  {14.12, 88.25, 67.80, 34.19},
		7:  {19.77, 123.55, 132.89, 66.85},
		9:  {25.42, 158.85, 219.67, 110.36},
		11: {31.06, 194.15, 328.15, 164.71},
	}
	rows := Table3([]int{3, 5, 7, 9, 11})
	for _, r := range rows {
		w := want[r.Nkz]
		within(t, "BC", r.BC, w[0], 0.01)
		within(t, "RGF", r.RGF, w[1], 0.01)
		within(t, "SSE(OMEN)", r.SSEOMEN, w[2], 0.005)
		within(t, "SSE(DaCe)", r.SSEDaCe, w[3], 0.005)
	}
}

func TestRGFFlopsMatchesPaperFormula(t *testing.T) {
	// Table 11 derives from this formula: a literal evaluation of
	// 8·(26·bnum − 25)·bs³ per (kz, E) point on the Large structure,
	// whose 3,072-wide blocks take no measured-ratio discount.
	p := device.Large(7)
	bs := 10240.0 * 12 / 40
	want := 8 * (26*40 - 25) * bs * bs * bs * 7 * 1220
	if got := RGFFlops(p); got != want {
		t.Fatalf("RGFFlops = %g, want %g", got, want)
	}
	// More blocks at fixed Na·Norb lowers the cost.
	finer := p
	finer.Bnum = 80
	if RGFFlops(finer) > RGFFlops(p) {
		t.Fatal("doubling bnum should reduce RGF flops")
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	// Published Table 4 (TiB): OMEN and DaCe volumes, weak scaling.
	wantOMEN := map[int]float64{3: 32.11, 5: 89.18, 7: 174.80, 9: 288.95, 11: 431.65}
	wantDaCe := map[int]float64{3: 0.54, 5: 1.22, 7: 2.17, 9: 3.38, 11: 4.86}
	for _, r := range Table4([]int{3, 5, 7, 9, 11}) {
		within(t, "Table4 OMEN", r.OMENTiB, wantOMEN[r.Nkz], 0.02)
		within(t, "Table4 DaCe", r.DaCeTiB, wantDaCe[r.Nkz], 0.04)
		// Reduction ratios: 59–89× in the paper.
		if r.Ratio < 50 || r.Ratio > 100 {
			t.Errorf("Table4 Nkz=%d: ratio %.0f outside the paper's 59-89x band", r.Nkz, r.Ratio)
		}
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	wantOMEN := map[int]float64{224: 108.24, 448: 117.75, 896: 136.76, 1792: 174.80, 2688: 212.84}
	wantDaCe := map[int]float64{224: 0.95, 448: 1.13, 896: 1.48, 1792: 2.17, 2688: 2.87}
	for _, r := range Table5([]int{224, 448, 896, 1792, 2688}) {
		within(t, "Table5 OMEN", r.OMENTiB, wantOMEN[r.Procs], 0.02)
		within(t, "Table5 DaCe", r.DaCeTiB, wantDaCe[r.Procs], 0.04)
	}
	// The reduction shrinks as processes grow (114x -> 74x): strong
	// scaling erodes the advantage because the D/Π broadcast-reduce term
	// in OMEN grows with P while the DaCe per-process halo grows too.
	rows := Table5([]int{224, 2688})
	if rows[0].Ratio <= rows[1].Ratio {
		t.Errorf("reduction ratio should shrink with P: %.0f vs %.0f", rows[0].Ratio, rows[1].Ratio)
	}
}

func TestWorkedExample612(t *testing.T) {
	ex := WorkedExample()
	// Paper: 276 GiB per process for D≷/Π≷; 2.58 PiB for G≷.
	within(t, "OMEN D per process", ex.OMENDPerProcessGiB, 276, 0.03)
	within(t, "OMEN G total", ex.OMENGTotalPiB, 2.58, 0.01)
	// Paper: 28.26 MiB per-process overhead and 1.8 TiB total for DaCe.
	within(t, "DaCe D per process", ex.DaCeDPerProcMiB, 28.26, 0.05)
	within(t, "DaCe G total", ex.DaCeGTotalTiB, 1.8, 0.15)
}

func TestMPIInvocationCounts(t *testing.T) {
	p := device.Small(7)
	if got := OMENMPIInvocations(p, p.NE); got != 9*70*7 {
		t.Fatalf("OMEN invocations = %d", got)
	}
	if DaCeMPIInvocations() != 4 {
		t.Fatal("DaCe must use 4 collectives")
	}
}

func TestMachines(t *testing.T) {
	pd, sm := PizDaint(), Summit()
	if pd.GPUsPerNode != 1 || sm.GPUsPerNode != 6 {
		t.Fatal("GPU counts wrong")
	}
	// Summit's GPU/CPU imbalance: the paper quotes 81.43x.
	ratio := float64(sm.GPUsPerNode) * sm.GPUPeak / sm.CPUPeak
	if ratio < 70 || ratio > 95 {
		t.Fatalf("Summit GPU/CPU ratio %.1f implausible", ratio)
	}
	// Piz Daint: 9.4x.
	ratio = pd.GPUPeak / pd.CPUPeak
	if math.Abs(ratio-9.4) > 0.3 {
		t.Fatalf("Piz Daint GPU/CPU ratio %.2f, paper says 9.4", ratio)
	}
}

func TestTable11Headline(t *testing.T) {
	r := Table11()
	// The paper sustains 85.45 Pflop/s double / 90.89 mixed including
	// I/O; the model must land in the same regime and preserve the
	// ordering mixed > double.
	if r.Double.SustainedPflops < 60 || r.Double.SustainedPflops > 115 {
		t.Fatalf("double-precision sustained %.1f Pflop/s far from the paper's 85.45", r.Double.SustainedPflops)
	}
	if r.Mixed.SustainedPflops <= r.Double.SustainedPflops {
		t.Fatal("mixed precision must beat double precision")
	}
	// Total per-iteration Eflop: paper reports 8.17 (cached).
	within(t, "total Eflop", r.Double.UsefulEflop, 8.17, 0.03)
	within(t, "GF Eflop", r.Double.GFEflop, 6.00, 0.01)
	within(t, "SSE Eflop", r.Double.SSEEflop, 2.18, 0.01)
	// Time scale: the paper's iteration takes ~95 s.
	if r.Double.TotalSec < 40 || r.Double.TotalSec > 200 {
		t.Fatalf("iteration time %.1f s far from the paper's ~95 s", r.Double.TotalSec)
	}
}

func TestTable12PerAtomGap(t *testing.T) {
	rows := Table12()
	if rows[0].Variant != "OMEN" || rows[1].Variant != "DaCe" {
		t.Fatal("row order")
	}
	speedup := rows[0].TimePerAtom / rows[1].TimePerAtom
	// Paper: 140.9x. The model must reproduce the two-orders-of-magnitude
	// shape.
	if speedup < 50 || speedup > 300 {
		t.Fatalf("per-atom speedup %.1fx outside the expected band (paper: 140.9x)", speedup)
	}
	// DaCe absolute time should resemble the measured 333 s.
	if rows[1].TimeSec < 150 || rows[1].TimeSec > 700 {
		t.Fatalf("DaCe large-run time %.0f s far from the paper's 333 s", rows[1].TimeSec)
	}
}

func TestFigure8StrongScalingShape(t *testing.T) {
	for _, m := range []Machine{PizDaint(), Summit()} {
		pts := StrongScaling(m, []int{100, 300, 1000, 2000, 5000})
		for i, pt := range pts {
			if pt.DaCe.TotalSec >= pt.OMEN.TotalSec {
				t.Fatalf("%s: DaCe must be faster at %d GPUs", m.Name, pt.GPUs)
			}
			if i > 0 && pt.DaCe.TotalSec >= pts[i-1].DaCe.TotalSec {
				t.Fatalf("%s: DaCe time must fall with more GPUs", m.Name)
			}
			// OMEN should be dominated by SSE+comm (the 95% observation).
			frac := (pt.OMEN.SSESec + pt.OMEN.CommSec) / pt.OMEN.TotalSec
			if frac < 0.5 {
				t.Fatalf("%s: OMEN SSE+comm fraction %.2f too small", m.Name, frac)
			}
		}
		last := pts[len(pts)-1]
		if last.Speedup < 8 || last.Speedup > 60 {
			t.Fatalf("%s: modelled speedup %.1fx outside the paper band (16.3x Piz Daint / 24.5x Summit)",
				m.Name, last.Speedup)
		}
		// Summit's speedup exceeds Piz Daint's (POWER9 library penalty).
	}
	pd := StrongScaling(PizDaint(), []int{2000})[0].Speedup
	sm := StrongScaling(Summit(), []int{2000})[0].Speedup
	if sm <= pd {
		t.Fatalf("Summit speedup (%.1f) should exceed Piz Daint (%.1f), §7.2", sm, pd)
	}
}

func TestWeakScalingShape(t *testing.T) {
	pts := WeakScaling(Summit(), []int{3, 5, 7, 9, 11})
	// "the higher the simulation accuracy (Nkz), the greater the speedup".
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup <= pts[i-1].Speedup {
			t.Fatalf("speedup should grow with Nkz: %v then %v", pts[i-1].Speedup, pts[i].Speedup)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	pts := Figure9([]int{3420, 6840, 13680, 27360})
	for i := 1; i < len(pts); i++ {
		if pts[i].DoublePflops <= pts[i-1].DoublePflops {
			t.Fatal("sustained Pflop/s must grow with GPUs")
		}
	}
	last := pts[len(pts)-1]
	// Paper: 86.26 Pflop/s compute-only at 27,360 GPUs (85.45 with I/O).
	if last.DoublePflops < 60 || last.DoublePflops > 115 {
		t.Fatalf("full-scale Pflop/s %.1f far from the paper's 86.26", last.DoublePflops)
	}
	if last.MixedPflops <= last.DoublePflops {
		t.Fatal("mixed precision should add throughput")
	}
	// Cache modes order: fewer recomputed flops, less time.
	if !(last.Double[CacheBCSpec].TotalSec < last.Double[CacheBC].TotalSec &&
		last.Double[CacheBC].TotalSec < last.Double[NoCache].TotalSec) {
		t.Fatal("cache modes must be ordered NoCache > CacheBC > CacheBC+Spec in time")
	}
	// Strong-scaling efficiency 3,420 -> 27,360 GPUs: paper achieves
	// 86.26/11.53 = 7.5x on 8x GPUs.
	gain := last.DoublePflops / pts[0].DoublePflops
	if gain < 4 || gain > 8.1 {
		t.Fatalf("scaling gain %.2fx implausible vs paper's 7.5x", gain)
	}
}

func TestRooflineClassification(t *testing.T) {
	pts := Roofline(device.Large(21))
	byName := map[string]RooflinePoint{}
	for _, p := range pts {
		byName[p.Kernel] = p
	}
	if byName["RGF"].Bound != "compute" {
		t.Fatalf("RGF must be compute-bound, got %+v", byName["RGF"])
	}
	if byName["SSE-64"].Bound != "memory" {
		t.Fatalf("SSE-64 must be memory-bound, got %+v", byName["SSE-64"])
	}
	if byName["SSE-16"].Bound != "memory" {
		t.Fatalf("SSE-16 must remain memory-bound, got %+v", byName["SSE-16"])
	}
	// SSE-16 doubles the operational intensity of SSE-64.
	if math.Abs(byName["SSE-16"].Intensity/byName["SSE-64"].Intensity-2) > 1e-9 {
		t.Fatal("fp16 should double the flop/byte intensity")
	}
	// Achieved never exceeds attainable.
	for _, p := range pts {
		if p.Achieved > p.Attainable*1.05 {
			t.Fatalf("%s achieves above its roofline", p.Kernel)
		}
	}
}

func TestTotalIterationFlops(t *testing.T) {
	p := device.Small(7)
	omen := TotalIterationFlops(p, false)
	dace := TotalIterationFlops(p, true)
	if dace >= omen {
		t.Fatal("DaCe variant must need fewer flops")
	}
	// The SSE savings are roughly half the SSE cost.
	saved := omen - dace
	if saved < 0.4*SSEOMENFlops(p)*0.5 || saved > 0.6*SSEOMENFlops(p) {
		t.Fatalf("savings %.3g implausible vs SSE %.3g", saved, SSEOMENFlops(p))
	}
}

func TestDaCeCommVolumeMixed(t *testing.T) {
	p := device.TestParams(24, 4, 2)
	p.NE = 16
	p.Nomega = 4
	fp := DaCeCommVolume(p, 2, 4)
	mx := DaCeCommVolumeMixed(p, 2, 4)
	if mx <= 0 || fp <= 0 {
		t.Fatalf("volumes must be positive: fp64 %g, mixed %g", fp, mx)
	}
	// Norb=2 electron segments pack 8 words into 3 (8/3×), the phonon
	// segments better: the overall predicted reduction must exceed the
	// 1.8× acceptance factor and stay below the asymptotic 4×.
	ratio := fp / mx
	if ratio < 1.8 || ratio > 4 {
		t.Errorf("predicted mixed reduction %.3fx outside (1.8, 4)", ratio)
	}
	// The prediction composes per segment: halving Ta doubles nothing
	// structurally — volume stays monotone in the process count.
	if DaCeCommVolumeMixed(p, 4, 4) <= mx {
		t.Error("mixed volume must grow with the process count")
	}
}
