package device

import (
	"fmt"
	"math"
)

// Profile is the declarative device-zoo layer: a recipe of physical
// perturbations — heterojunction band offsets, gate-induced potential
// wells, doping and vacancy disorder, strain-perturbed couplings —
// lowered onto a Device built by the existing Params/Build pipeline.
// A Profile is plain data with a stable JSON form: it travels inside
// qt.Spec through the qtd wire format and participates in the RunConfig
// content hash, so every (profile, seed) realization is its own cache
// artifact.
//
// Lowering contract (see also internal/README.md):
//
//   - Apply mutates matrix VALUES only. Geometry, slab assignment and
//     neighbour lists are untouched, so every realization of one base
//     Params shares identical tensor shapes (the property that lets
//     ensemble members exchange warm-start Σ≷ states) and stays
//     block-tridiagonal.
//   - Apply is deterministic: the same (profile, seed) produces a
//     bitwise-identical Device. Disorder draws come from a splittable
//     splitmix64 stream keyed by (seed, channel, site), never by visit
//     order, so the result is independent of map iteration or future
//     loop restructuring.
//   - Apply composes in a fixed order — regions, gates, doping,
//     vacancies, strain — and must be applied exactly once, to a
//     freshly Built device.
type Profile struct {
	// Regions assign heterojunction band offsets to slab ranges.
	Regions []Region `json:"regions,omitempty"`
	// Gates superimpose smooth electrostatic wells on the onsite levels.
	Gates []Gate `json:"gates,omitempty"`
	// Doping randomly shifts the onsite energies of a fraction of atoms.
	Doping *Doping `json:"doping,omitempty"`
	// Vacancies knock a fraction of atoms out of the conduction window.
	Vacancies *Vacancies `json:"vacancies,omitempty"`
	// Strain perturbs the bond couplings (hoppings, force constants and,
	// through the hoppings, the ∇H electron–phonon couplings).
	Strain *Strain `json:"strain,omitempty"`
}

// Region is a heterojunction segment: every atom whose slab lies in
// [From, To] has its onsite levels shifted by Offset (eV) — the
// conduction-band offset between the two materials of the junction.
type Region struct {
	From   int     `json:"from"`   // first slab, inclusive
	To     int     `json:"to"`     // last slab, inclusive
	Offset float64 `json:"offset"` // band offset (eV)
}

// Gate is a smooth electrostatic well: the onsite levels of slab s are
// shifted by −Depth·exp(−((s−Center)/Width)²), the Gaussian image of a
// gate electrode centred at slab coordinate Center.
type Gate struct {
	Center float64 `json:"center"` // slab coordinate of the gate centre
	Width  float64 `json:"width"`  // Gaussian width in slabs (> 0)
	Depth  float64 `json:"depth"`  // well depth (eV); positive attracts electrons
}

// Doping marks each atom a dopant with probability Fraction and shifts
// its onsite levels by Shift (eV) — negative for donors that pull the
// local band down, positive for acceptors.
type Doping struct {
	Fraction float64 `json:"fraction"` // dopant probability per atom, in [0, 1]
	Shift    float64 `json:"shift"`    // onsite shift (eV) of a dopant site
}

// Vacancies marks each atom a vacancy with probability Fraction: its
// onsite levels are shifted by Shift (eV; the default 8 pushes the site
// far out of the transport window) and every bond touching it is scaled
// by BondScale (default 0.1) — a strongly scattering, nearly decoupled
// defect site.
type Vacancies struct {
	Fraction  float64 `json:"fraction"`             // vacancy probability per atom, in [0, 1]
	Shift     float64 `json:"shift,omitempty"`      // onsite expulsion (eV); 0 = default 8
	BondScale float64 `json:"bond_scale,omitempty"` // bond attenuation factor; 0 = default 0.1
}

const (
	defaultVacancyShift     = 8.0
	defaultVacancyBondScale = 0.1
)

func (v *Vacancies) shift() float64 {
	if v.Shift == 0 {
		return defaultVacancyShift
	}
	return v.Shift
}

func (v *Vacancies) bondScale() float64 {
	if v.BondScale == 0 {
		return defaultVacancyBondScale
	}
	return v.BondScale
}

// Strain scales every bond coupling by 1 + Amplitude·u, u uniform in
// (−1, 1) per bond — the coupling fluctuation of a strained (bond
// lengths perturbed) lattice. Electron hoppings and phonon force
// constants draw independently; ∇H follows the hoppings.
type Strain struct {
	Amplitude float64 `json:"amplitude"` // relative coupling fluctuation, in [0, 1)
}

// validate checks the profile against the device parameters it will be
// lowered onto.
func (pr *Profile) validate(p Params) error {
	for i, r := range pr.Regions {
		switch {
		case r.From < 0 || r.To >= p.Bnum || r.From > r.To:
			return fmt.Errorf("device: profile region %d: slab range [%d, %d] outside [0, %d]", i, r.From, r.To, p.Bnum-1)
		case !isFinite(r.Offset):
			return fmt.Errorf("device: profile region %d: offset must be finite (got %g)", i, r.Offset)
		}
	}
	for i, g := range pr.Gates {
		switch {
		case g.Width <= 0 || !isFinite(g.Width):
			return fmt.Errorf("device: profile gate %d: width must be positive and finite (got %g)", i, g.Width)
		case !isFinite(g.Center) || !isFinite(g.Depth):
			return fmt.Errorf("device: profile gate %d: center and depth must be finite", i)
		}
	}
	if d := pr.Doping; d != nil {
		switch {
		case d.Fraction < 0 || d.Fraction > 1 || !isFinite(d.Fraction):
			return fmt.Errorf("device: profile doping: fraction must be in [0, 1] (got %g)", d.Fraction)
		case !isFinite(d.Shift):
			return fmt.Errorf("device: profile doping: shift must be finite (got %g)", d.Shift)
		}
	}
	if v := pr.Vacancies; v != nil {
		switch {
		case v.Fraction < 0 || v.Fraction > 1 || !isFinite(v.Fraction):
			return fmt.Errorf("device: profile vacancies: fraction must be in [0, 1] (got %g)", v.Fraction)
		case !isFinite(v.Shift):
			return fmt.Errorf("device: profile vacancies: shift must be finite (got %g)", v.Shift)
		case v.BondScale < 0 || v.BondScale > 1 || !isFinite(v.BondScale):
			return fmt.Errorf("device: profile vacancies: bond_scale must be in [0, 1] (got %g)", v.BondScale)
		}
	}
	if s := pr.Strain; s != nil {
		if s.Amplitude < 0 || s.Amplitude >= 1 || !isFinite(s.Amplitude) {
			return fmt.Errorf("device: profile strain: amplitude must be in [0, 1) (got %g)", s.Amplitude)
		}
	}
	return nil
}

// Disorder channels of the splittable RNG. Each physical mechanism
// draws from its own stream family so adding or removing one never
// shifts the draws of another.
const (
	chanDoping uint64 = 1 + iota
	chanVacancy
	chanStrainHop
	chanStrainSpring
)

// mix64 is the splitmix64 output finalizer — a strong 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitSeed derives an independent stream seed for a (seed, path...)
// key — the splittable-RNG primitive behind per-site disorder draws.
func splitSeed(seed uint64, path ...uint64) uint64 {
	for _, p := range path {
		seed = mix64(seed + 0x9e3779b97f4a7c15*(p+1))
	}
	return seed
}

// siteFloat draws the uniform [0, 1) value of one (channel, site) under
// the realization seed — stable regardless of the order sites are
// visited in.
func siteFloat(seed, channel, site uint64) float64 {
	return newRNG(splitSeed(seed, channel, site)).float()
}

// Apply lowers the profile onto a freshly built device for one disorder
// realization. The same (profile, seed) always produces a
// bitwise-identical device; different seeds redraw only the random
// channels (doping, vacancies, strain) while the deterministic layers
// (regions, gates) stay fixed.
func (pr *Profile) Apply(d *Device, seed uint64) error {
	if err := pr.validate(d.P); err != nil {
		return err
	}
	pr.applyPotential(d)
	pr.applyDoping(d, seed) // onsite only; ∇H unaffected
	dirty := pr.applyVacancies(d, seed)
	dirty = pr.applyStrain(d, seed) || dirty
	if dirty {
		// Bond couplings changed: re-derive the electron–phonon ∇H
		// blocks from the perturbed hoppings (same keys, new values).
		d.buildGradH()
	}
	return nil
}

// applyPotential lowers the deterministic layers: heterojunction band
// offsets per slab region and gate-induced wells.
func (pr *Profile) applyPotential(d *Device) {
	if len(pr.Regions) == 0 && len(pr.Gates) == 0 {
		return
	}
	p := d.P
	// Per-slab potential, composed once.
	v := make([]float64, p.Bnum)
	for _, r := range pr.Regions {
		for s := r.From; s <= r.To; s++ {
			v[s] += r.Offset
		}
	}
	for _, g := range pr.Gates {
		for s := 0; s < p.Bnum; s++ {
			x := (float64(s) - g.Center) / g.Width
			v[s] -= g.Depth * math.Exp(-x*x)
		}
	}
	for a := 0; a < p.Na; a++ {
		if dv := v[d.SlabOf[a]]; dv != 0 {
			d.shiftOnsite(a, dv)
		}
	}
}

// applyDoping draws the dopant sites and shifts their onsite levels.
func (pr *Profile) applyDoping(d *Device, seed uint64) {
	dp := pr.Doping
	if dp == nil || dp.Fraction == 0 || dp.Shift == 0 {
		return
	}
	for a := 0; a < d.P.Na; a++ {
		if siteFloat(seed, chanDoping, uint64(a)) < dp.Fraction {
			d.shiftOnsite(a, dp.Shift)
		}
	}
}

// applyVacancies draws the vacancy sites, expels them energetically and
// attenuates every bond touching them.
func (pr *Profile) applyVacancies(d *Device, seed uint64) bool {
	vc := pr.Vacancies
	if vc == nil || vc.Fraction == 0 {
		return false
	}
	p := d.P
	bl := p.Norb * p.Norb
	touched := false
	for a := 0; a < p.Na; a++ {
		if siteFloat(seed, chanVacancy, uint64(a)) >= vc.Fraction {
			continue
		}
		touched = true
		d.shiftOnsite(a, vc.shift())
		scale := complex(vc.bondScale(), 0)
		for slot := 1; slot <= len(d.Neigh[a]); slot++ {
			scaleBlock(block(d.hop, d.bond(a, slot), bl), scale)
		}
	}
	return touched
}

// applyStrain scales each bond's hopping and force-constant block by an
// independent per-bond factor 1 + Amplitude·u, u ∈ (−1, 1).
func (pr *Profile) applyStrain(d *Device, seed uint64) bool {
	st := pr.Strain
	if st == nil || st.Amplitude == 0 {
		return false
	}
	na := uint64(d.P.Na)
	bl := d.P.Norb * d.P.Norb
	for a := 0; a < d.P.Na; a++ {
		for k, b := range d.Neigh[a] {
			if b < a {
				continue // one draw per undirected bond
			}
			bond, s := uint64(a)*na+uint64(b), d.SlotOff[a]+1+k
			u := 2*siteFloat(seed, chanStrainHop, bond) - 1
			scaleBlock(block(d.hop, s, bl), complex(1+st.Amplitude*u, 0))
			u = 2*siteFloat(seed, chanStrainSpring, bond) - 1
			scaleBlock(block(d.spring, s, N3D*N3D), complex(1+st.Amplitude*u, 0))
		}
	}
	return true
}

// shiftOnsite adds v·I to atom a's Hermitian onsite block, preserving
// its Hermiticity exactly.
func (d *Device) shiftOnsite(a int, v float64) {
	n := d.P.Norb
	on := block(d.onsite, a, n*n)
	for o := 0; o < n; o++ {
		on[o*n+o] += complex(v, 0)
	}
}

// scaleBlock multiplies every element of m by s, in place.
func scaleBlock(m []complex128, s complex128) {
	for i := range m {
		m[i] *= s
	}
}
