// Quickstart: the canonical use of the qt facade — a complete
// self-consistent electro-thermal simulation is three lines:
//
//	sim, _ := qt.NewFromConfig(qt.RunConfig{Spec: qt.Spec{Atoms: 24, Slabs: 6, Orbitals: 2}})
//	run, _ := sim.Start(context.Background())
//	res, _ := run.Wait()
//
// Everything else — the ballistic limit, per-iteration telemetry, and
// an I-V curve — hangs off the same two types.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/qt"
)

func main() {
	ctx := context.Background()

	// A 24-atom FinFET slice: 6 slabs of 4 atoms, 2 orbitals per atom.
	sim, err := qt.NewFromConfig(qt.RunConfig{Spec: qt.Spec{Atoms: 24, Slabs: 6, Orbitals: 2}})
	if err != nil {
		log.Fatal(err)
	}
	run, err := sim.Start(ctx)
	if err != nil {
		log.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-consistent solve: converged=%v in %d iterations\n", res.Converged, res.Iterations)
	fmt.Printf("  current: %.6g (a.u.), hottest slab: %.1f K at slab %d\n",
		res.Current, res.MaxTemperature, res.HotSpot)

	// One GF phase with zero scattering self-energies = ballistic limit.
	obs, err := sim.Ballistic()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nballistic transport at Vds = %.2f V:\n", sim.Spec.Bias)
	fmt.Printf("  source current:  %.6g (a.u.)\n", obs.CurrentL)
	fmt.Printf("  drain current:   %.6g (conservation: sum %.2e)\n",
		obs.CurrentR, obs.CurrentL+obs.CurrentR)
	fmt.Printf("  energy current:  %.6g\n", obs.EnergyCurrentL)

	fmt.Println("\ncurrent through each slab interface (must be flat without scattering):")
	for i, j := range obs.InterfaceCurrent {
		fmt.Printf("  interface %d: %.6g\n", i, j)
	}

	// An I-V characteristic: one configuration solved at each bias (a
	// smaller structure keeps the curve quick). WithBias, not Spec.Bias,
	// because a zero Spec.Bias is the default bias, not 0 V.
	fmt.Println("\nI-V characteristic (self-consistent, 5 iterations/point):")
	iv := qt.RunConfig{
		Spec:          qt.Spec{Atoms: 16, Slabs: 4, Orbitals: 2, EnergyPoints: 16, PhononModes: 3},
		MaxIterations: 5,
	}
	for _, vds := range []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		sim, err := qt.NewFromConfig(iv, qt.WithBias(vds))
		if err != nil {
			log.Fatal(err)
		}
		run, err := sim.Start(ctx)
		if err != nil {
			log.Fatal(err)
		}
		res, err := run.Wait()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Vds = %.1f V  ->  I = %.6g\n", vds, res.Current)
	}
}
