package main

import (
	"fmt"

	"repro/internal/model"
)

// runTable3 — single-iteration computational load (Pflop), Small structure.
func runTable3(bool) {
	header("Table 3: Single Iteration Computational Load (Pflop), Small structure")
	row("Kernel \\ Nkz", "3", "5", "7", "9", "11")
	rows := table3([]int{3, 5, 7, 9, 11})
	line := func(name string, sel func(table3Row) float64, paper []float64) {
		cols := []string{name}
		for _, r := range rows {
			cols = append(cols, f2(sel(r)))
		}
		row(cols...)
		cols = []string{"  (paper)"}
		for _, p := range paper {
			cols = append(cols, f2(p))
		}
		row(cols...)
	}
	line("Boundary Cond.", func(r table3Row) float64 { return r.BC }, []float64{8.45, 14.12, 19.77, 25.42, 31.06})
	line("RGF", func(r table3Row) float64 { return r.RGF }, []float64{52.95, 88.25, 123.55, 158.85, 194.15})
	line("SSE (OMEN)", func(r table3Row) float64 { return r.SSEOMEN }, []float64{24.41, 67.80, 132.89, 219.67, 328.15})
	line("SSE (DaCe)", func(r table3Row) float64 { return r.SSEDaCe }, []float64{12.38, 34.19, 66.85, 110.36, 164.71})
}

// runTable4 — SSE communication volume, weak scaling (TiB).
func runTable4(bool) {
	header("Table 4: SSE Communication Volume, Weak Scaling (TiB), Small structure")
	row("Nkz (procs)", "OMEN", "(paper)", "DaCe", "(paper)", "reduction")
	paperO := []float64{32.11, 89.18, 174.80, 288.95, 431.65}
	paperD := []float64{0.54, 1.22, 2.17, 3.38, 4.86}
	for i, r := range table4([]int{3, 5, 7, 9, 11}) {
		row(fmt.Sprintf("%d (%d)", r.Nkz, r.Procs),
			f2(r.OMENTiB), f2(paperO[i]), f2(r.DaCeTiB), f2(paperD[i]),
			fmt.Sprintf("%.0fx", r.Ratio))
	}
}

// runTable5 — SSE communication volume, strong scaling (TiB).
func runTable5(bool) {
	header("Table 5: SSE Communication Volume, Strong Scaling (TiB), Small, Nkz=7")
	row("Processes", "OMEN", "(paper)", "DaCe", "(paper)", "reduction")
	paperO := []float64{108.24, 117.75, 136.76, 174.80, 212.84}
	paperD := []float64{0.95, 1.13, 1.48, 2.17, 2.87}
	for i, r := range table5([]int{224, 448, 896, 1792, 2688}) {
		row(fmt.Sprintf("%d", r.Procs),
			f2(r.OMENTiB), f2(paperO[i]), f2(r.DaCeTiB), f2(paperD[i]),
			fmt.Sprintf("%.0fx", r.Ratio))
	}
	ex := workedExample()
	fmt.Println("\n§6.1.2 worked example (Large, NE=1000):")
	fmt.Printf("  OMEN D≷/Π≷ per process: %.0f GiB (paper: 276 GiB)\n", ex.OMENDPerProcessGiB)
	fmt.Printf("  OMEN G≷ replication:    %.2f PiB (paper: 2.58 PiB)\n", ex.OMENGTotalPiB)
	fmt.Printf("  DaCe D≷ halo/process:   %.2f MiB (paper: 28.26 MiB)\n", ex.DaCeDPerProcMiB)
	fmt.Printf("  DaCe G≷ distributed:    %.2f TiB (paper: 1.8 TiB)\n", ex.DaCeGTotalTiB)
	p := paperSmall(7)
	fmt.Printf("  MPI invocations: OMEN %d per iteration vs DaCe %d\n",
		omenMPIInvocations(p, p.NE), daceMPIInvocations)
}

// runTable11 — full-scale 10,240-atom run breakdown.
func runTable11(bool) {
	header("Table 11: Full-Scale 10,240-Atom Run Breakdown (4,560 Summit nodes, model)")
	r := table11()
	row("Phase", "Time [s]", "Eflop", "Pflop/s", "(paper t)", "(paper Eflop)")
	row("Data Ingestion", f2(r.Ingestion), "-", "-", "31.10", "-")
	row("GF (RGF)", f2(r.Double.GFSec), f2(r.Double.GFEflop),
		f1(r.Double.GFEflop*1000/r.Double.GFSec), "41.36", "6.00")
	row("SSE (double)", f2(r.Double.SSESec), f2(r.Double.SSEEflop),
		f1(r.Double.SSEEflop*1000/r.Double.SSESec), "41.91", "2.18")
	row("SSE (mixed)", f2(r.Mixed.SSESec), f2(r.Mixed.SSEEflop), "-", "36.16", "2.18")
	row("Communication", f2(r.Double.CommSec), "-", "-", "11.50", "-")
	row("Total (double)", f2(r.Double.TotalSec), f2(r.Double.UsefulEflop),
		f1(r.Double.SustainedPflops), "94.77", "8.17")
	row("Total (mixed)", f2(r.Mixed.TotalSec), f2(r.Mixed.UsefulEflop),
		f1(r.Mixed.SustainedPflops), "89.02", "8.17")
	fmt.Printf("\nSustained: %.1f Pflop/s double (paper 86.26), %.1f mixed (paper 91.68)\n",
		r.Double.SustainedPflops, r.Mixed.SustainedPflops)
	fmt.Printf("%% of HPL: %.1f%% (paper 58.05%%), %% of peak: %.1f%% (paper 42.96%%)\n",
		r.PctOfHPL, r.PctOfPeak)
}

// runTable12 — per-atom performance comparison.
func runTable12(bool) {
	header("Table 12: Per-Atom Performance (P=6,840 GPUs, Nkz=21, NE=1,220)")
	row("Variant", "Na", "Time [s]", "Time/Atom [s]", "Speedup")
	rows := table12()
	base := rows[0].TimePerAtom
	for _, r := range rows {
		row(r.Variant, fmt.Sprintf("%d", r.Na), f1(r.TimeSec),
			fmt.Sprintf("%.3f", r.TimePerAtom), fmt.Sprintf("%.1fx", base/r.TimePerAtom))
	}
	fmt.Println("(paper: OMEN 4,695.7 s / 4.413 s-per-atom; DaCe 333.36 s / 0.033; 140.9x)")
}

// runFigure8 — scaling model series.
func runFigure8(bool) {
	header("Figure 8: Strong & Weak Scaling, OMEN vs DaCe (model)")
	for _, m := range []machine{pizDaint(), summit()} {
		fmt.Printf("\n-- %s, strong scaling (Small, Nkz=7), per-iteration seconds --\n", m.Name)
		row("GPUs", "OMEN comp", "OMEN comm", "DaCe comp", "DaCe comm", "speedup")
		var gpus []int
		if m.Name == "Piz Daint" {
			gpus = []int{100, 300, 1000, 2000, 5300}
		} else {
			gpus = []int{114, 500, 1000, 1400}
		}
		for _, pt := range strongScaling(m, gpus) {
			row(fmt.Sprintf("%d", pt.GPUs),
				f1(pt.OMEN.TotalSec-pt.OMEN.CommSec), f1(pt.OMEN.CommSec),
				f1(pt.DaCe.TotalSec-pt.DaCe.CommSec), f1(pt.DaCe.CommSec),
				fmt.Sprintf("%.1fx", pt.Speedup))
		}
		fmt.Printf("\n-- %s, weak scaling (Nkz grows with allocation) --\n", m.Name)
		row("Nkz", "GPUs", "OMEN total", "DaCe total", "speedup")
		for i, pt := range weakScaling(m, []int{3, 5, 7, 9, 11}) {
			row(fmt.Sprintf("%d", []int{3, 5, 7, 9, 11}[i]), fmt.Sprintf("%d", pt.GPUs),
				f1(pt.OMEN.TotalSec), f1(pt.DaCe.TotalSec), fmt.Sprintf("%.1fx", pt.Speedup))
		}
	}
	fmt.Println("\n(paper: up to 16.3x total speedup on Piz Daint, 24.5x on Summit)")
}

// runFigure9 — extreme-scale strong scaling.
func runFigure9(bool) {
	header("Figure 9: Strong Scaling on Summit, Large structure, Nkz=21 (model)")
	row("GPUs", "No Cache", "Cache BC", "BC+Spec", "Mixed", "% of HPL")
	for _, pt := range figure9([]int{3420, 6840, 13680, 27360}) {
		row(fmt.Sprintf("%d", pt.GPUs),
			f1(pt.Double[noCache].SustainedPflops),
			f1(pt.Double[cacheBC].SustainedPflops),
			f1(pt.Double[cacheBCSpec].SustainedPflops),
			f1(pt.MixedPflops),
			f1(pt.PctOfHPL))
	}
	fmt.Println("(paper, double precision: 11.53 [63%], 28.23 [77%], 47.31 [64%], 86.26 [59%] Pflop/s)")
}

// runFigure10 — roofline.
func runFigure10(bool) {
	header("Figure 10: Roofline of the Computational Kernels (V100)")
	row("Kernel", "OI [F/B]", "Attainable", "Achieved", "Bound")
	for _, pt := range model.Roofline(paperLarge(21)) {
		row(pt.Kernel, f2(pt.Intensity),
			fmt.Sprintf("%.2f Tflop/s", pt.Attainable/1e12),
			fmt.Sprintf("%.2f Tflop/s", pt.Achieved/1e12),
			pt.Bound)
	}
	fmt.Println("(paper: RGF compute-bound near the DP ceiling; SSE-64 and SSE-16 memory-bound under the L2 roof)")
}

// runIngestion — §7.1.1 data-ingestion comparison.
func runIngestion(bool) {
	header("Data Ingestion (§7.1.1): naive parallel reads vs chunked broadcast")
	row("Nodes", "Naive [s]", "Staged [s]", "Speedup")
	for _, r := range compareIngestion([]int{100, 1000, 2589, 4560, 5300}) {
		row(fmt.Sprintf("%d", r.nodes), f1(r.naiveSec), f1(r.stagedSec), fmt.Sprintf("%.0fx", r.speedup))
	}
	fmt.Println("(paper: 1,112 s at 2,589 nodes naive; >30 min near full scale; 31.1 s staged at 4,560 nodes)")
}
