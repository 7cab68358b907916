package negf

import (
	"math"

	"repro/internal/device"
)

// Observables are the physical outputs of a GF phase — the quantities
// plotted in Figs. 1(d) and 11 of the paper: currents, energy currents,
// dissipated power, and the atomically resolved temperature.
//
// The struct is also the accumulator they are summed in. Every field but
// AtomTemperature is additive over grid points: Reset empties it,
// AddElectron/AddPhonon fold per-point results in with the quadrature
// weights, and the sum over any partition of the grid — the Solver kit's
// one shard or the ranks' shards after a reduction — is the same
// value up to the association of the partial sums. Additive lists the
// fields a distributed run reduces every iteration.
type Observables struct {
	// CurrentL/R are the Meir-Wingreen electron currents at the source and
	// drain contacts (arbitrary units; equal magnitude, opposite sign in
	// steady state).
	CurrentL, CurrentR float64
	// SpectralCurrent is the left-contact current per energy point —
	// the spectral distribution in the middle panel of Fig. 11.
	SpectralCurrent []float64
	// EnergyCurrentL is the electron energy current at the source.
	EnergyCurrentL float64
	// InterfaceCurrent[i] is the electron current across the slab i→i+1
	// interface; constant along x for a converged solution.
	InterfaceCurrent []float64
	// InterfaceEnergyCurrent[i] is the electron energy current profile —
	// the dashed blue line of Fig. 11 (left).
	InterfaceEnergyCurrent []float64
	// PhononInterfaceEnergy[i] is the phonon heat-current profile — the
	// dash-dotted green line of Fig. 11 (left).
	PhononInterfaceEnergy []float64
	// PhononEnergyCurrentL is the phonon heat current into the source.
	PhononEnergyCurrentL float64
	// DissipatedPower[i] is the energy/time transferred from electrons to
	// the lattice in slab i (P_diss of Fig. 11).
	DissipatedPower []float64
	// AtomTemperature[a] is the effective lattice temperature per atom (K),
	// extracted from the local phonon occupation — Fig. 1(d).
	AtomTemperature []float64
	// ElectronEnergyLoss and PhononEnergyGain are the totals of the two
	// collision integrals; their agreement is the energy-conservation
	// check the paper uses to validate the GF+SSE implementation (§8.1).
	ElectronEnergyLoss float64
	PhononEnergyGain   float64
	// LDOS[i][n] is the electron local density of states of slab i at
	// energy E_n, −(1/π)·Im tr Gᴿ_ii averaged over kz — the "conduction
	// band edge" backdrop of Fig. 11 (middle).
	LDOS [][]float64
	// PhononDOS[a][m-1] and PhononOcc[a][m-1] are the per-atom phonon
	// spectral weight −2·Im tr Dᴿ_aa and occupation −Im tr D<_aa at ω_m,
	// averaged over qz — what FitTemperatures turns into AtomTemperature.
	PhononDOS, PhononOcc [][]float64
}

// Additive visits the fields a distributed run sums across ranks every
// iteration, in the wire order of that reduction, sizing the profiles for
// p where they are not already. LDOS and the phonon spectra are additive
// too but stay off the per-iteration wire: they are reduced once, after
// the loop.
func (o *Observables) Additive(p device.Params, visit func(*float64)) {
	for _, v := range []*float64{
		&o.CurrentL, &o.CurrentR, &o.EnergyCurrentL,
		&o.PhononEnergyCurrentL, &o.ElectronEnergyLoss, &o.PhononEnergyGain,
	} {
		visit(v)
	}
	vec := func(v *[]float64, n int) {
		if len(*v) != n {
			*v = make([]float64, n)
		}
		for i := range *v {
			visit(&(*v)[i])
		}
	}
	vec(&o.InterfaceCurrent, p.Bnum-1)
	vec(&o.InterfaceEnergyCurrent, p.Bnum-1)
	vec(&o.PhononInterfaceEnergy, p.Bnum-1)
	vec(&o.DissipatedPower, p.Bnum)
	vec(&o.SpectralCurrent, p.NE)
}

// Reset makes o the empty accumulator for p: every additive field zero
// in freshly allocated storage (a caller may still hold the previous GF
// phase's slices), AtomTemperature kept.
func (o *Observables) Reset(p device.Params) {
	*o = Observables{AtomTemperature: o.AtomTemperature}
	o.Additive(p, func(*float64) {})
	o.LDOS = grid(p.Bnum, p.NE)
	o.PhononDOS = grid(p.Na, p.Nomega)
	o.PhononOcc = grid(p.Na, p.Nomega)
}

// grid allocates a zeroed rows×cols table on one backing array.
func grid(rows, cols int) [][]float64 {
	flat := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// AddElectron folds electron point results into the accumulator, in the
// order given, with the energy-integration weight ΔE/2π/Nkz — the one
// place the electron observables are weighed and summed.
func (o *Observables) AddElectron(p device.Params, results ...*ElectronPointResult) {
	w := p.DE / (2 * math.Pi) / float64(p.Nkz)
	for _, r := range results {
		o.CurrentL += w * r.CurrentL
		o.CurrentR += w * r.CurrentR
		o.EnergyCurrentL += w * r.EnergyL
		for i := range r.InterfaceCurrent {
			o.InterfaceCurrent[i] += w * r.InterfaceCurrent[i]
			o.InterfaceEnergyCurrent[i] += w * r.InterfaceEnergy[i]
		}
		for i := range r.DissipatedPerSlab {
			o.DissipatedPower[i] += w * r.DissipatedPerSlab[i]
		}
		o.SpectralCurrent[r.IE] += r.CurrentL
		for i := range r.LDOS {
			o.LDOS[i][r.IE] += r.LDOS[i] / float64(p.Nkz)
		}
	}
}

// AddPhonon is AddElectron for phonon point results, with the weight
// ΔE/2π/Nqz on the heat currents and the qz average on the spectra.
func (o *Observables) AddPhonon(p device.Params, results ...*PhononPointResult) {
	w := p.DE / (2 * math.Pi) / float64(p.Nqz())
	for _, r := range results {
		omega := p.Omega(r.M)
		o.PhononEnergyCurrentL += w * omega * r.EnergyContactL
		for i := range r.InterfaceEnergy {
			o.PhononInterfaceEnergy[i] += w * omega * r.InterfaceEnergy[i]
		}
		for a := range r.DOS {
			o.PhononDOS[a][r.M-1] += r.DOS[a] / float64(p.Nqz())
			o.PhononOcc[a][r.M-1] += r.Occ[a] / float64(p.Nqz())
		}
	}
}

// FitTemperatures extracts per-atom effective lattice temperatures from
// the phonon spectral weight dos_a(ω_m) and observed occupation
// occ_a(ω_m): find T_a such that the Bose-weighted spectral energy matches
// the observed local energy,
// Σ_m ω_m·n_B(ω_m, T_a)·dos_a(ω_m) = Σ_m ω_m·occ_a(ω_m).
func FitTemperatures(p device.Params, dos, occ [][]float64) []float64 {
	out := make([]float64, p.Na)
	for a := 0; a < p.Na; a++ {
		var target, weight float64
		for m := 1; m <= p.Nomega; m++ {
			target += p.Omega(m) * occ[a][m-1]
			weight += p.Omega(m) * dos[a][m-1]
		}
		if weight <= 0 {
			out[a] = p.TC
			continue
		}
		energyAt := func(t float64) float64 {
			var u float64
			for m := 1; m <= p.Nomega; m++ {
				u += p.Omega(m) * device.BoseEinstein(p.Omega(m), t) * dos[a][m-1]
			}
			return u
		}
		// Bisection on T ∈ [1, 5000] K; energyAt is monotone in T.
		lo, hi := 1.0, 5000.0
		if target <= energyAt(lo) {
			out[a] = lo
			continue
		}
		if target >= energyAt(hi) {
			out[a] = hi
			continue
		}
		for it := 0; it < 60; it++ {
			mid := (lo + hi) / 2
			if energyAt(mid) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		out[a] = (lo + hi) / 2
	}
	return out
}

// SlabTemperature averages the atomic temperatures per slab — the
// "average crystal temperature along x" curve of Fig. 11 (middle).
func (o *Observables) SlabTemperature(dev *device.Device) []float64 {
	out := make([]float64, dev.P.Bnum)
	for sInd, atoms := range dev.Slabs {
		var sum float64
		for _, a := range atoms {
			sum += o.AtomTemperature[a]
		}
		out[sInd] = sum / float64(len(atoms))
	}
	return out
}
