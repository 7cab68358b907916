// Ensemble: the device-zoo workflow at laptop scale — a disordered
// nanowire profile (band-offset step, gate well, substitutional doping,
// bond strain) swept over bias, with every bias point averaged over N
// disorder realizations. Single-realization currents are meaningless in
// the disordered regime; the deliverable is the ensemble mean with its
// 95% confidence interval, reduced Welford-style as members finish.
//
// The study runs in-process through ensemble.Study: realizations fan
// out over GOMAXPROCS member runners, member 0 solves cold and donates
// its converged Σ≷ state to warm-start the siblings.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/device"
	"repro/internal/ensemble"
	"repro/internal/qt"
)

func main() {
	profile := &device.Profile{
		Regions: []device.Region{{From: 3, To: 5, Offset: 0.06}},
		Gates:   []device.Gate{{Center: 3.0, Width: 1.2, Depth: 0.05}},
		Doping:  &device.Doping{Fraction: 0.2, Shift: -0.07},
		Strain:  &device.Strain{Amplitude: 0.03},
	}

	const members = 8
	fmt.Printf("disorder-averaged I-V (N=%d realizations per bias)\n\n", members)
	fmt.Println("  bias      <I> ± CI95          std        min..max     converged")

	for _, bias := range []float64{0.05, 0.10, 0.15, 0.20, 0.25} {
		st := &ensemble.Study{
			Config: qt.RunConfig{
				Spec: qt.Spec{
					Atoms: 24, Slabs: 6, Orbitals: 2,
					EnergyPoints: 20, PhononModes: 3,
					Bias:    bias,
					Profile: profile,
				},
				MaxIterations: 25, Tolerance: 1e-5,
			},
			Members:   members,
			BaseSeed:  4000,
			WarmStart: true, // member 0 donates its Σ≷ state to the rest
		}
		res, err := st.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		cur := res.Report.Current
		fmt.Printf("  %.2f   %.6g ± %.2g   %.3g   %.5g..%.5g   %d/%d\n",
			bias, cur.Mean, cur.CI95, cur.Std, cur.Min, cur.Max,
			res.Report.Converged, members)
	}

	fmt.Println("\nThe CI shrinks as 1/sqrt(N): rerun with more members to tighten")
	fmt.Println("the bars; identical (profile, seed) members are bitwise-reproducible.")
}
