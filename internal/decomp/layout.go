// Package decomp implements the two domain decompositions of the SSE phase
// compared in Fig. 5 of the paper, executing them for real on the simulated
// MPI runtime of internal/comm:
//
//   - OMEN:  the original momentum×energy decomposition. Every electron
//     rank owns a block of (kz, E) pairs; each of the Nqz·Nω rounds
//     broadcasts one phonon point D≷(qz, ω) to everyone, replicates the
//     electron Green's functions point-to-point to the (kz±qz, E±ω)
//     stencil neighbours, and reduces partial Π≷ back to the phonon
//     owners. Volume grows with Nqz·Nω — the scaling bottleneck.
//
//   - DaCe:  the communication-avoiding atom×energy (Ta×TE) decomposition.
//     Four Alltoallv collectives redistribute G≷ and D≷ to tile owners
//     (with an Nb atom halo and a 2Nω energy halo), the tiles compute
//     their Σ≷/Π≷ pieces locally, and two more exchanges return the
//     results — a constant number of MPI calls and two orders of
//     magnitude less volume.
//
// Both paths produce bit-identical self-energies to the sequential kernel,
// which the package tests verify, while the comm counters measure the
// volumes that Tables 4–5 model analytically.
package decomp

import "repro/internal/device"

// OMENLayout block-distributes the flattened electron (kz, E) pairs and
// the flattened phonon (qz, ω) points over P ranks.
type OMENLayout struct {
	P           int
	Nkz, NE     int
	Nqz, Nomega int
}

// NewOMENLayout builds the layout for the given device parameters.
func NewOMENLayout(p device.Params, ranks int) *OMENLayout {
	return &OMENLayout{P: ranks, Nkz: p.Nkz, NE: p.NE, Nqz: p.Nqz(), Nomega: p.Nomega}
}

// pairOwner returns the rank owning electron pair (ik, ie).
func (l *OMENLayout) pairOwner(ik, ie int) int {
	idx := ik*l.NE + ie
	return idx * l.P / (l.Nkz * l.NE)
}

// phononOwner returns the rank owning phonon point (iq, m) with m ∈ [1, Nω].
func (l *OMENLayout) phononOwner(iq, m int) int {
	idx := iq*l.Nomega + (m - 1)
	return idx * l.P / (l.Nqz * l.Nomega)
}

// OwnedPairs lists the (ik, ie) pairs owned by rank r in global order.
func (l *OMENLayout) OwnedPairs(r int) [][2]int {
	var out [][2]int
	for ik := 0; ik < l.Nkz; ik++ {
		for ie := 0; ie < l.NE; ie++ {
			if l.pairOwner(ik, ie) == r {
				out = append(out, [2]int{ik, ie})
			}
		}
	}
	return out
}

// OwnedPhonon lists the (iq, m) points owned by rank r.
func (l *OMENLayout) OwnedPhonon(r int) [][2]int {
	var out [][2]int
	for iq := 0; iq < l.Nqz; iq++ {
		for m := 1; m <= l.Nomega; m++ {
			if l.phononOwner(iq, m) == r {
				out = append(out, [2]int{iq, m})
			}
		}
	}
	return out
}

// Owned counts the electron pairs and phonon points rank r owns — the
// lengths of OwnedPairs and OwnedPhonon, without building either list.
func (l *OMENLayout) Owned(r int) (pairs, points int) {
	for ik := 0; ik < l.Nkz; ik++ {
		for ie := 0; ie < l.NE; ie++ {
			if l.pairOwner(ik, ie) == r {
				pairs++
			}
		}
	}
	for iq := 0; iq < l.Nqz; iq++ {
		for m := 1; m <= l.Nomega; m++ {
			if l.phononOwner(iq, m) == r {
				points++
			}
		}
	}
	return pairs, points
}

// DaCeLayout is the Ta×TE tile decomposition: rank r = ta·TE + te owns the
// atom range ta and the energy range te.
type DaCeLayout struct {
	Ta, TE int
	Na, NE int
	Nomega int
	dev    *device.Device
}

// NewDaCeLayout builds a tile layout with Ta·TE ranks.
func NewDaCeLayout(dev *device.Device, ta, te int) *DaCeLayout {
	return &DaCeLayout{Ta: ta, TE: te, Na: dev.P.Na, NE: dev.P.NE, Nomega: dev.P.Nomega, dev: dev}
}

// procs returns the number of ranks (Ta·TE).
func (l *DaCeLayout) procs() int { return l.Ta * l.TE }

// tileOf splits a rank into its (atom-tile, energy-tile) coordinates.
func (l *DaCeLayout) tileOf(r int) (ta, te int) { return r / l.TE, r % l.TE }

// atomRange returns the [lo, hi) atom range of atom-tile ta.
func (l *DaCeLayout) atomRange(ta int) (lo, hi int) {
	lo = ta * l.Na / l.Ta
	hi = (ta + 1) * l.Na / l.Ta
	return lo, hi
}

// energyRange returns the [lo, hi) energy range of energy-tile te.
func (l *DaCeLayout) energyRange(te int) (lo, hi int) {
	lo = te * l.NE / l.TE
	hi = (te + 1) * l.NE / l.TE
	return lo, hi
}

// EnergyHalo returns the energy range a tile must receive: the owned range
// widened by Nω on each side ("each process is assigned NE/TE + 2Nω
// energies", §6.1.2), clamped to the grid.
func (l *DaCeLayout) EnergyHalo(te int) (lo, hi int) {
	lo, hi = l.energyRange(te)
	lo -= l.Nomega
	hi += l.Nomega
	if lo < 0 {
		lo = 0
	}
	if hi > l.NE {
		hi = l.NE
	}
	return lo, hi
}

// atomSet returns the atoms a tile needs: the owned range plus the
// neighbour halo (the "+c ≤ Nb" atoms of §6.1.2), in ascending order.
func (l *DaCeLayout) atomSet(ta int) []int {
	lo, hi := l.atomRange(ta)
	need := make([]bool, l.Na)
	for a := lo; a < hi; a++ {
		need[a] = true
		for _, b := range l.dev.Neigh[a] {
			need[b] = true
		}
	}
	var out []int
	for a, ok := range need {
		if ok {
			out = append(out, a)
		}
	}
	return out
}

// ownedAtoms returns the atoms owned (not halo) by atom-tile ta.
func (l *DaCeLayout) ownedAtoms(ta int) []int {
	lo, hi := l.atomRange(ta)
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
