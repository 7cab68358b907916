// Package model holds the closed forms of the paper's §6.1 performance
// model that a run evaluates: the SSE communication volume of the Ta×TE
// decomposition, which the planner prices an exchange with, and the
// roofline coordinates of Fig. 10. The paper-scale tables and projections
// built on the same model (Tables 3–5 and 11–12, Figs. 8–9) are
// cmd/paperbench's.
package model

import "repro/internal/device"

// DaCeCommVolume returns the per-iteration SSE communication volume of the
// communication-avoiding Ta×TE decomposition (§6.1.2): each of the P=Ta·TE
// processes contributes
//
//	64·Nkz·(NE/TE + 2Nω)·(Na/Ta + Nb)·Norb²            (G≷ and Σ≷)
//	64·Nqz·Nω·(Na/Ta + Nb)·(Nb+1)·N3D²                 (D≷ and Π≷)
//
// bytes across the four Alltoallv collectives.
func DaCeCommVolume(p device.Params, ta, te int) float64 {
	procs := float64(ta * te)
	atomShare := float64(p.Na)/float64(ta) + float64(p.NbT)
	energyShare := float64(p.NE)/float64(te) + 2*float64(p.Nomega)
	g := 64 * float64(p.Nkz) * energyShare * atomShare * float64(p.Norb) * float64(p.Norb)
	d := 64 * float64(p.Nqz()) * float64(p.Nomega) * atomShare * float64(p.NbT+1) *
		float64(device.N3D) * float64(device.N3D)
	return procs * (g + d)
}
