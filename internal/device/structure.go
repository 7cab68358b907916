package device

import (
	"math"
	"sort"

	"repro/internal/blocktri"
	"repro/internal/linalg"
)

// Device is a fully built synthetic nanostructure: geometry, neighbour
// lists and all coupling matrices, from which the kz/qz-dependent operator
// matrices are assembled on demand.
type Device struct {
	P Params

	// Geometry: atoms on a rows × Bnum grid in the x-y simulation slice,
	// slab s holding atoms [s*rows, (s+1)*rows).
	Pos    [][2]float64
	SlabOf []int
	Slabs  [][]int

	// Neigh[a] lists the neighbours of atom a (each in the same or an
	// adjacent slab, preserving block-tridiagonality), sorted ascending.
	Neigh [][]int
	// NbSlot[a][b] gives the index of b in Neigh[a] (or -1).
	nbSlot []map[int]int

	onsite []*linalg.Matrix        // per-atom Norb×Norb Hermitian onsite block
	zshift []*linalg.Matrix        // per-atom Hermitian kz-modulation of onsite
	hop    map[pair]*linalg.Matrix // directed (a<b) Norb×Norb hopping
	spring map[pair]*linalg.Matrix // directed (a<b) 3×3 real force-constant block
	zeta   float64                 // in-plane kz modulation amplitude
	kappaZ float64                 // out-of-plane spring stiffness

	gradH map[pairDir]*linalg.Matrix // ∇H for ordered pairs (a,b) and direction i
}

type pair struct{ a, b int }
type pairDir struct {
	a, b, dir int
}

func orderedPair(a, b int) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// Build constructs the synthetic device for p. The same Params and Seed
// always produce the identical structure.
func Build(p Params) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		P:      p,
		hop:    make(map[pair]*linalg.Matrix),
		spring: make(map[pair]*linalg.Matrix),
		gradH:  make(map[pairDir]*linalg.Matrix),
		zeta:   0.15,
		kappaZ: 0.02,
	}
	d.buildGeometry()
	d.buildNeighbours()
	d.buildElectronic()
	d.buildPhononic()
	d.buildGradH()
	return d, nil
}

// MustBuild is Build for known-good parameters (tests, examples).
func MustBuild(p Params) *Device {
	d, err := Build(p)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Device) buildGeometry() {
	p := d.P
	rows := p.AtomsPerSlab()
	d.Pos = make([][2]float64, p.Na)
	d.SlabOf = make([]int, p.Na)
	d.Slabs = make([][]int, p.Bnum)
	rng := newRNG(p.Seed)
	const a0 = 1.0 // lattice constant (arbitrary units)
	for s := 0; s < p.Bnum; s++ {
		for r := 0; r < rows; r++ {
			a := s*rows + r
			// Slight deterministic jitter makes distances (and hence
			// couplings) non-degenerate, like a relaxed DFT geometry.
			jx := 0.05 * (rng.float() - 0.5)
			jy := 0.05 * (rng.float() - 0.5)
			d.Pos[a] = [2]float64{float64(s)*a0 + jx, float64(r)*a0 + jy}
			d.SlabOf[a] = s
			d.Slabs[s] = append(d.Slabs[s], a)
		}
	}
}

// buildNeighbours selects up to NbT nearest atoms per atom, restricted to
// the same or adjacent slab so that all operators stay block-tridiagonal,
// and symmetrizes the relation.
func (d *Device) buildNeighbours() {
	p := d.P
	d.Neigh = make([][]int, p.Na)
	d.nbSlot = make([]map[int]int, p.Na)
	type cand struct {
		b    int
		dist float64
	}
	adjacency := make([]map[int]bool, p.Na)
	for a := 0; a < p.Na; a++ {
		adjacency[a] = make(map[int]bool)
	}
	for a := 0; a < p.Na; a++ {
		var cands []cand
		for b := 0; b < p.Na; b++ {
			if b == a {
				continue
			}
			ds := d.SlabOf[b] - d.SlabOf[a]
			if ds < -1 || ds > 1 {
				continue
			}
			cands = append(cands, cand{b, d.dist(a, b)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].b < cands[j].b
		})
		n := p.NbT
		if n > len(cands) {
			n = len(cands)
		}
		for _, c := range cands[:n] {
			adjacency[a][c.b] = true
			adjacency[c.b][a] = true // symmetrize
		}
	}
	for a := 0; a < p.Na; a++ {
		list := make([]int, 0, len(adjacency[a]))
		for b := range adjacency[a] {
			list = append(list, b)
		}
		sort.Ints(list)
		d.Neigh[a] = list
		d.nbSlot[a] = make(map[int]int, len(list))
		for i, b := range list {
			d.nbSlot[a][b] = i
		}
	}
}

func (d *Device) dist(a, b int) float64 {
	dx := d.Pos[a][0] - d.Pos[b][0]
	dy := d.Pos[a][1] - d.Pos[b][1]
	return math.Hypot(dx, dy)
}

// NeighbourSlot returns the index of b in a's neighbour list, or -1.
func (d *Device) NeighbourSlot(a, b int) int {
	if s, ok := d.nbSlot[a][b]; ok {
		return s
	}
	return -1
}

// MaxNb returns the largest realized neighbour count.
func (d *Device) MaxNb() int {
	m := 0
	for _, l := range d.Neigh {
		if len(l) > m {
			m = len(l)
		}
	}
	return m
}

// buildElectronic generates onsite energies and hopping matrices. Onsite
// blocks are Hermitian with orbital energies spread over ~2 eV; hoppings
// decay exponentially with distance, as localized DFT basis couplings do.
func (d *Device) buildElectronic() {
	p := d.P
	rng := newRNG(p.Seed ^ 0xe1ec)
	d.onsite = make([]*linalg.Matrix, p.Na)
	d.zshift = make([]*linalg.Matrix, p.Na)
	for a := 0; a < p.Na; a++ {
		on := linalg.New(p.Norb, p.Norb)
		for o := 0; o < p.Norb; o++ {
			// Orbital ladder with deterministic disorder.
			e := -0.4 + 0.25*float64(o) + 0.05*(rng.float()-0.5)
			on.Set(o, o, complex(e, 0))
			for o2 := o + 1; o2 < p.Norb; o2++ {
				v := complex(0.04*(rng.float()-0.5), 0.04*(rng.float()-0.5))
				on.Set(o, o2, v)
				on.Set(o2, o, complex(real(v), -imag(v)))
			}
		}
		d.onsite[a] = on
		zs := linalg.New(p.Norb, p.Norb)
		for o := 0; o < p.Norb; o++ {
			zs.Set(o, o, complex(0.08+0.02*(rng.float()-0.5), 0))
		}
		d.zshift[a] = zs
	}
	for a := 0; a < p.Na; a++ {
		for _, b := range d.Neigh[a] {
			if b < a {
				continue
			}
			key := pair{a, b}
			if _, ok := d.hop[key]; ok {
				continue
			}
			t0 := 0.35 * math.Exp(-(d.dist(a, b) - 1))
			h := linalg.New(p.Norb, p.Norb)
			for o1 := 0; o1 < p.Norb; o1++ {
				for o2 := 0; o2 < p.Norb; o2++ {
					mag := t0 / (1 + math.Abs(float64(o1-o2)))
					h.Set(o1, o2, complex(mag*(0.8+0.4*rng.float()), 0.1*mag*(rng.float()-0.5)))
				}
			}
			d.hop[key] = h
		}
	}
}

// buildPhononic generates 3×3 force-constant blocks with the standard
// longitudinal/transverse decomposition along the bond direction. The
// onsite block is fixed by the acoustic sum rule in Dynamical().
func (d *Device) buildPhononic() {
	p := d.P
	rng := newRNG(p.Seed ^ 0x9407)
	for a := 0; a < p.Na; a++ {
		for _, b := range d.Neigh[a] {
			if b < a {
				continue
			}
			key := pair{a, b}
			if _, ok := d.spring[key]; ok {
				continue
			}
			k := (0.010 + 0.002*rng.float()) * math.Exp(-(d.dist(a, b) - 1))
			ux := d.Pos[b][0] - d.Pos[a][0]
			uy := d.Pos[b][1] - d.Pos[a][1]
			n := math.Hypot(ux, uy)
			ux, uy = ux/n, uy/n
			dir := [3]float64{ux, uy, 0}
			m := linalg.New(N3D, N3D)
			for i := 0; i < N3D; i++ {
				for j := 0; j < N3D; j++ {
					v := 1.5 * k * dir[i] * dir[j]
					if i == j {
						v += 0.5 * k
					}
					m.Set(i, j, complex(v, 0))
				}
			}
			d.spring[key] = m
		}
	}
}

// buildGradH generates the derivative couplings ∇iH_ab (i ∈ x,y,z) for
// every ordered neighbour pair, with ∇iH_ba = (∇iH_ab)ᴴ so the scattering
// self-energies stay (anti-)Hermitian. Magnitudes scale with the hopping
// and the bond direction, times the global Coupling knob.
func (d *Device) buildGradH() {
	p := d.P
	for key, h := range d.hop {
		a, b := key.a, key.b
		ux := d.Pos[b][0] - d.Pos[a][0]
		uy := d.Pos[b][1] - d.Pos[a][1]
		n := math.Hypot(ux, uy)
		// z-component: the z-periodic images contribute a fixed fraction.
		dir := [3]float64{ux / n, uy / n, 0.4}
		for i := 0; i < N3D; i++ {
			g := linalg.New(p.Norb, p.Norb)
			linalg.Scale(g, complex(p.Coupling*dir[i], 0), h)
			d.gradH[pairDir{a, b, i}] = g
			d.gradH[pairDir{b, a, i}] = g.H()
		}
	}
}

// GradH returns ∇iH_ab for neighbour pair (a, b) and direction i, or nil
// if b is not a neighbour of a.
func (d *Device) GradH(a, b, i int) *linalg.Matrix {
	return d.gradH[pairDir{a, b, i}]
}

// Hamiltonian assembles the block-tridiagonal H(kz) for momentum index
// ikz. In-plane hoppings are modulated by (1 + 2ζ·cos kz) — the
// contribution of the ±z periodic images — and onsite blocks acquire the
// 2·cos(kz)·W z-image coupling. H(kz) is Hermitian for every kz.
func (d *Device) Hamiltonian(ikz int) *blocktri.Matrix {
	p := d.P
	ck := math.Cos(p.kz(ikz))
	mod := complex(1+2*d.zeta*ck, 0)
	m := blocktri.Uniform(p.Bnum, p.ElBlockSize())
	rows := p.AtomsPerSlab()
	for a := 0; a < p.Na; a++ {
		sa := d.SlabOf[a]
		ra := (a - sa*rows) * p.Norb
		// Onsite.
		blk := m.Diag[sa]
		for o1 := 0; o1 < p.Norb; o1++ {
			for o2 := 0; o2 < p.Norb; o2++ {
				v := d.onsite[a].At(o1, o2) + complex(2*ck, 0)*d.zshift[a].At(o1, o2)
				blk.Set(ra+o1, ra+o2, v)
			}
		}
		for _, b := range d.Neigh[a] {
			if b < a {
				continue
			}
			h := d.hop[pair{a, b}]
			sb := d.SlabOf[b]
			rb := (b - sb*rows) * p.Norb
			var dst *linalg.Matrix
			var r0, c0 int
			switch {
			case sb == sa:
				dst, r0, c0 = m.Diag[sa], ra, rb
			case sb == sa+1:
				dst, r0, c0 = m.Upper[sa], ra, rb
			case sb == sa-1:
				dst, r0, c0 = m.Lower[sb], ra, rb
			default:
				panic("device: neighbour crosses more than one slab")
			}
			for o1 := 0; o1 < p.Norb; o1++ {
				for o2 := 0; o2 < p.Norb; o2++ {
					dst.Set(r0+o1, c0+o2, mod*h.At(o1, o2))
				}
			}
			// Hermitian mirror.
			var mir *linalg.Matrix
			var mr, mc int
			switch {
			case sb == sa:
				mir, mr, mc = m.Diag[sa], rb, ra
			case sb == sa+1:
				mir, mr, mc = m.Lower[sa], rb, ra
			case sb == sa-1:
				mir, mr, mc = m.Upper[sb], rb, ra
			}
			for o1 := 0; o1 < p.Norb; o1++ {
				for o2 := 0; o2 < p.Norb; o2++ {
					v := mod * h.At(o1, o2)
					mir.Set(mr+o2, mc+o1, complex(real(v), -imag(v)))
				}
			}
		}
	}
	return m
}

// Dynamical assembles the block-tridiagonal dynamical matrix Φ(qz) for
// momentum index iqz. Off-diagonal blocks are −K_ab; onsite blocks follow
// the acoustic sum rule Φ_aa = Σ_b K_ab plus the z-image spring
// 4κz·sin²(qz/2)·I, giving a positive-semidefinite matrix with ω(q→0)→0
// acoustic behaviour.
func (d *Device) Dynamical(iqz int) *blocktri.Matrix {
	p := d.P
	sq := math.Sin(p.kz(iqz) / 2)
	zspring := 4 * d.kappaZ * sq * sq
	m := blocktri.Uniform(p.Bnum, p.PhBlockSize())
	rows := p.AtomsPerSlab()
	for a := 0; a < p.Na; a++ {
		sa := d.SlabOf[a]
		ra := (a - sa*rows) * N3D
		diag := m.Diag[sa]
		for i := 0; i < N3D; i++ {
			diag.Set(ra+i, ra+i, complex(zspring, 0))
		}
		for _, b := range d.Neigh[a] {
			k := d.spring[orderedPair(a, b)]
			sb := d.SlabOf[b]
			rb := (b - sb*rows) * N3D
			// Acoustic sum rule accumulation on the diagonal.
			for i := 0; i < N3D; i++ {
				for j := 0; j < N3D; j++ {
					diag.Set(ra+i, ra+j, diag.At(ra+i, ra+j)+k.At(i, j))
				}
			}
			if b < a {
				continue // off-diagonal blocks written once per pair below
			}
			var dst *linalg.Matrix
			var r0, c0 int
			var mir *linalg.Matrix
			var mr, mc int
			switch {
			case sb == sa:
				dst, r0, c0 = m.Diag[sa], ra, rb
				mir, mr, mc = m.Diag[sa], rb, ra
			case sb == sa+1:
				dst, r0, c0 = m.Upper[sa], ra, rb
				mir, mr, mc = m.Lower[sa], rb, ra
			case sb == sa-1:
				dst, r0, c0 = m.Lower[sb], ra, rb
				mir, mr, mc = m.Upper[sb], rb, ra
			default:
				panic("device: neighbour crosses more than one slab")
			}
			for i := 0; i < N3D; i++ {
				for j := 0; j < N3D; j++ {
					v := -k.At(i, j)
					dst.Set(r0+i, c0+j, v)
					mir.Set(mr+j, mc+i, v) // K is real symmetric
				}
			}
		}
	}
	return m
}

// splitmix64-based deterministic RNG, stable across Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
