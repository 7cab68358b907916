package device

import (
	"cmp"
	"math"
	"math/cmplx"
	"slices"

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
	// SlotOff is the device's slot layout: the prefix sums of
	// 1+len(Neigh[a]), so atom a owns slots [SlotOff[a], SlotOff[a+1]) —
	// slot 0 its own block, slot 1+k its pair with Neigh[a][k] — and
	// SlotOff[Na] = Σ(1+nb_a). Every tensor.Phonon over the device shares
	// it (its Off), and so do the pair tables below; read-only.
	SlotOff []int

	// Pair tables: entry or block SlotOff[a]+slot of each; slot 0 has no pair.
	mirror []int        // the slot a holds in the list of its slot's atom
	hop    []complex128 // Norb×Norb hopping H_ab, at the slot of a < b
	spring []complex128 // 3×3 real force constants K_ab, at the slot of a < b
	gradH  []complex128 // ∇iH_ab for i = x, y, z, 3·Norb² per slot

	onsite []complex128 // Norb×Norb Hermitian onsite block per atom
	zshift []complex128 // Norb×Norb Hermitian kz-modulation of onsite per atom
	zeta   float64      // in-plane kz modulation amplitude
	kappaZ float64      // out-of-plane spring stiffness
}

// block returns block i of a flat table of n-element blocks.
func block(table []complex128, i, n int) []complex128 {
	return table[i*n : (i+1)*n : (i+1)*n]
}

// Build constructs the synthetic device for p. The same Params and Seed
// always produce the identical structure.
func Build(p Params) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Device{P: p, zeta: 0.15, kappaZ: 0.02}
	d.buildGeometry()
	d.buildNeighbours()
	d.buildElectronic()
	d.buildPhononic()
	d.gradH = make([]complex128, 3*p.Norb*p.Norb*d.SlotOff[p.Na])
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
	atoms := make([]int, p.Na)
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
			atoms[a] = a
		}
		d.Slabs[s] = atoms[s*rows : (s+1)*rows : (s+1)*rows]
	}
}

// buildNeighbours selects up to NbT nearest atoms per atom, restricted to
// the same or adjacent slab so that all operators stay block-tridiagonal,
// and symmetrizes the relation; then it lays out the slots and their
// mirror table. Slabs are contiguous atom ranges, so an atom's candidates
// are one range, ranked by distance, then index.
func (d *Device) buildNeighbours() {
	p := d.P
	rows := p.AtomsPerSlab()
	type cand struct {
		b    int
		dist float64
	}
	var cands []cand
	picks := make([][2]int, 0, p.Na*min(p.NbT, 3*rows))
	deg := make([]int, p.Na)
	for a := 0; a < p.Na; a++ {
		s := d.SlabOf[a]
		cands = cands[:0]
		for b := max(s-1, 0) * rows; b < min(s+2, p.Bnum)*rows; b++ {
			if b != a {
				cands = append(cands, cand{b, d.dist(a, b)})
			}
		}
		slices.SortFunc(cands, func(x, y cand) int {
			return cmp.Or(cmp.Compare(x.dist, y.dist), cmp.Compare(x.b, y.b))
		})
		for _, c := range cands[:min(p.NbT, len(cands))] {
			picks = append(picks, [2]int{a, c.b})
			deg[a]++
			deg[c.b]++
		}
	}
	// Each pick lists both atoms in each other's list; a pair picked from
	// both ends is kept once.
	all := make([]int, 2*len(picks))
	d.Neigh = make([][]int, p.Na)
	for a, off := 0, 0; a < p.Na; a, off = a+1, off+deg[a] {
		d.Neigh[a] = all[off : off : off+deg[a]]
	}
	for _, pk := range picks {
		d.Neigh[pk[0]] = append(d.Neigh[pk[0]], pk[1])
		d.Neigh[pk[1]] = append(d.Neigh[pk[1]], pk[0])
	}
	d.SlotOff = make([]int, p.Na+1)
	for a, list := range d.Neigh {
		slices.Sort(list)
		d.Neigh[a] = slices.Compact(list)
		d.SlotOff[a+1] = d.SlotOff[a] + 1 + len(d.Neigh[a])
	}
	d.mirror = make([]int, d.SlotOff[p.Na])
	for a, list := range d.Neigh {
		for k, b := range list {
			j, _ := slices.BinarySearch(d.Neigh[b], a)
			d.mirror[d.SlotOff[a]+1+k] = 1 + j
		}
	}
}

func (d *Device) dist(a, b int) float64 {
	dx := d.Pos[a][0] - d.Pos[b][0]
	dy := d.Pos[a][1] - d.Pos[b][1]
	return math.Hypot(dx, dy)
}

// MirrorSlot returns the slot atom a holds in the list of the atom at its
// slot: for slot 1+k, with b = Neigh[a][k], the slot 1+j of Neigh[b][j] =
// a; slot 0, a's own block, is its own mirror.
func (d *Device) MirrorSlot(a, slot int) int { return d.mirror[d.SlotOff[a]+slot] }

// bond returns the flat slot holding the hopping and force constants of
// atom a and the atom b at its slot: a's slot if a < b, else b's slot
// of a.
func (d *Device) bond(a, slot int) int {
	if b := d.Neigh[a][slot-1]; b < a {
		return d.SlotOff[b] + d.MirrorSlot(a, slot)
	}
	return d.SlotOff[a] + slot
}

// MaxNb returns the largest realized neighbour count.
func (d *Device) MaxNb() int {
	m := 0
	for _, l := range d.Neigh {
		m = max(m, len(l))
	}
	return m
}

// buildElectronic generates onsite energies and hopping matrices. Onsite
// blocks are Hermitian with orbital energies spread over ~2 eV; hoppings
// decay exponentially with distance, as localized DFT basis couplings do.
func (d *Device) buildElectronic() {
	p := d.P
	n, bl := p.Norb, p.Norb*p.Norb
	rng := newRNG(p.Seed ^ 0xe1ec)
	d.onsite = make([]complex128, p.Na*bl)
	d.zshift = make([]complex128, p.Na*bl)
	for a := 0; a < p.Na; a++ {
		on := block(d.onsite, a, bl)
		for o := 0; o < n; o++ {
			// Orbital ladder with deterministic disorder.
			e := -0.4 + 0.25*float64(o) + 0.05*(rng.float()-0.5)
			on[o*n+o] = complex(e, 0)
			for o2 := o + 1; o2 < n; o2++ {
				v := complex(0.04*(rng.float()-0.5), 0.04*(rng.float()-0.5))
				on[o*n+o2] = v
				on[o2*n+o] = complex(real(v), -imag(v))
			}
		}
		zs := block(d.zshift, a, bl)
		for o := 0; o < n; o++ {
			zs[o*n+o] = complex(0.08+0.02*(rng.float()-0.5), 0)
		}
	}
	d.hop = make([]complex128, d.SlotOff[p.Na]*bl)
	for a := 0; a < p.Na; a++ {
		for k, b := range d.Neigh[a] {
			if b < a {
				continue
			}
			t0 := 0.35 * math.Exp(-(d.dist(a, b) - 1))
			h := block(d.hop, d.SlotOff[a]+1+k, bl)
			for o1 := 0; o1 < n; o1++ {
				for o2 := 0; o2 < n; o2++ {
					mag := t0 / (1 + math.Abs(float64(o1-o2)))
					h[o1*n+o2] = complex(mag*(0.8+0.4*rng.float()), 0.1*mag*(rng.float()-0.5))
				}
			}
		}
	}
}

// buildPhononic generates 3×3 force-constant blocks with the standard
// longitudinal/transverse decomposition along the bond direction. The
// onsite block is fixed by the acoustic sum rule in Dynamical().
func (d *Device) buildPhononic() {
	p := d.P
	rng := newRNG(p.Seed ^ 0x9407)
	d.spring = make([]complex128, d.SlotOff[p.Na]*N3D*N3D)
	for a := 0; a < p.Na; a++ {
		for k, b := range d.Neigh[a] {
			if b < a {
				continue
			}
			kb := (0.010 + 0.002*rng.float()) * math.Exp(-(d.dist(a, b) - 1))
			ux := d.Pos[b][0] - d.Pos[a][0]
			uy := d.Pos[b][1] - d.Pos[a][1]
			n := math.Hypot(ux, uy)
			ux, uy = ux/n, uy/n
			dir := [3]float64{ux, uy, 0}
			m := block(d.spring, d.SlotOff[a]+1+k, N3D*N3D)
			for i := 0; i < N3D; i++ {
				for j := 0; j < N3D; j++ {
					v := 1.5 * kb * dir[i] * dir[j]
					if i == j {
						v += 0.5 * kb
					}
					m[i*N3D+j] = complex(v, 0)
				}
			}
		}
	}
}

// buildGradH generates the derivative couplings ∇iH_ab (i ∈ x,y,z) for
// every ordered neighbour pair, with ∇iH_ba = (∇iH_ab)ᴴ so the scattering
// self-energies stay (anti-)Hermitian. Magnitudes scale with the hopping
// and the bond direction, times the global Coupling knob.
func (d *Device) buildGradH() {
	p := d.P
	n, bl := p.Norb, p.Norb*p.Norb
	for a := 0; a < p.Na; a++ {
		for k, b := range d.Neigh[a] {
			if b < a {
				continue
			}
			ux := d.Pos[b][0] - d.Pos[a][0]
			uy := d.Pos[b][1] - d.Pos[a][1]
			nrm := math.Hypot(ux, uy)
			// z-component: the z-periodic images contribute a fixed fraction.
			dir := [3]float64{ux / nrm, uy / nrm, 0.4}
			h := block(d.hop, d.SlotOff[a]+1+k, bl)
			for i := 0; i < N3D; i++ {
				g := d.GradH(a, 1+k, i)
				gt := d.GradH(b, d.MirrorSlot(a, 1+k), i)
				s := complex(p.Coupling*dir[i], 0)
				for r := 0; r < n; r++ {
					for c := 0; c < n; c++ {
						v := s * h[r*n+c]
						g[r*n+c] = v
						gt[c*n+r] = cmplx.Conj(v)
					}
				}
			}
		}
	}
}

// GradH returns ∇iH_ab, a Norb×Norb row-major block, for b the atom at
// slot ≥ 1 of atom a (slot 0 holds zeros); read-only.
func (d *Device) GradH(a, slot, i int) []complex128 {
	return block(d.gradH, 3*(d.SlotOff[a]+slot)+i, d.P.Norb*d.P.Norb)
}

// WithGradH returns a device that shares everything with d but its ∇H
// blocks, which are f(dst, src) of d's: dst and src are the two ∇H tables,
// in one layout, so f maps them element for element (sse.Mixed rounds them
// to binary16) and GradH reads the result.
func (d *Device) WithGradH(f func(dst, src []complex128)) *Device {
	c := *d
	c.gradH = make([]complex128, len(d.gradH))
	f(c.gradH, d.gradH)
	return &c
}

// Site returns where atom a's block sits in a block-tridiagonal operator
// with n rows per atom: the atom's slab and the row (and column) offset of
// the block inside that slab's diagonal block. Atoms are contiguous by
// slab, so the offset is the atom's place in its slab times n.
func (d *Device) Site(a, n int) (slab, off int) {
	slab = d.SlabOf[a]
	return slab, (a - d.Slabs[slab][0]) * n
}

// PairBlock returns where the coupling of atom a to atom b (b = a, or a
// neighbour of a) sits in the block-tridiagonal operator with blocks diag,
// upper and lower (Upper[i] = (i, i+1), Lower[i] = (i+1, i)) and n rows
// per atom: block (slab a, slab b) and the top-left corner of the pair's
// n×n window in it. PairBlock(b, a) is the mirror window. Neighbours lie
// within ±1 slab (buildNeighbours); a pair further apart panics.
func (d *Device) PairBlock(diag, upper, lower []*linalg.Matrix, a, b, n int) (blk *linalg.Matrix, r0, c0 int) {
	sa, r0 := d.Site(a, n)
	sb, c0 := d.Site(b, n)
	switch sb - sa {
	case 0:
		return diag[sa], r0, c0
	case 1:
		return upper[sa], r0, c0
	case -1:
		return lower[sb], r0, c0
	}
	panic("device: neighbour crosses more than one slab")
}

// Hamiltonian assembles the block-tridiagonal H(kz) for momentum index
// ikz. In-plane hoppings are modulated by (1 + 2ζ·cos kz) — the
// contribution of the ±z periodic images — and onsite blocks acquire the
// 2·cos(kz)·W z-image coupling. H(kz) is Hermitian for every kz.
func (d *Device) Hamiltonian(ikz int) *blocktri.Matrix {
	p := d.P
	n, bl := p.Norb, p.Norb*p.Norb
	ck := math.Cos(p.kz(ikz))
	mod := complex(1+2*d.zeta*ck, 0)
	m := blocktri.Uniform(p.Bnum, p.ElBlockSize())
	for a := 0; a < p.Na; a++ {
		// Onsite.
		sa, ra := d.Site(a, n)
		for o1 := 0; o1 < n; o1++ {
			for o2 := 0; o2 < n; o2++ {
				v := d.onsite[a*bl+o1*n+o2] + complex(2*ck, 0)*d.zshift[a*bl+o1*n+o2]
				m.Diag[sa].Set(ra+o1, ra+o2, v)
			}
		}
		for k, b := range d.Neigh[a] {
			if b < a {
				continue
			}
			h := block(d.hop, d.SlotOff[a]+1+k, bl)
			dst, r0, c0 := d.PairBlock(m.Diag, m.Upper, m.Lower, a, b, n)
			mir, mr, mc := d.PairBlock(m.Diag, m.Upper, m.Lower, b, a, n)
			for o1 := 0; o1 < n; o1++ {
				for o2 := 0; o2 < n; o2++ {
					v := mod * h[o1*n+o2]
					dst.Set(r0+o1, c0+o2, v)
					mir.Set(mr+o2, mc+o1, complex(real(v), -imag(v))) // Hermitian mirror
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
	for a := 0; a < p.Na; a++ {
		sa, ra := d.Site(a, N3D)
		diag := m.Diag[sa]
		for i := 0; i < N3D; i++ {
			diag.Set(ra+i, ra+i, complex(zspring, 0))
		}
		for nb, b := range d.Neigh[a] {
			k := block(d.spring, d.bond(a, 1+nb), N3D*N3D)
			// Acoustic sum rule accumulation on the diagonal.
			for i := 0; i < N3D; i++ {
				for j := 0; j < N3D; j++ {
					diag.Set(ra+i, ra+j, diag.At(ra+i, ra+j)+k[i*N3D+j])
				}
			}
			if b < a {
				continue // off-diagonal blocks written once per pair below
			}
			dst, r0, c0 := d.PairBlock(m.Diag, m.Upper, m.Lower, a, b, N3D)
			mir, mr, mc := d.PairBlock(m.Diag, m.Upper, m.Lower, b, a, N3D)
			for i := 0; i < N3D; i++ {
				for j := 0; j < N3D; j++ {
					v := -k[i*N3D+j]
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
