package decomp

import (
	"repro/internal/comm"
	"repro/internal/sse"
	"repro/internal/tensor"
)

// RunOMEN executes the SSE phase under the original OMEN momentum×energy
// decomposition on `ranks` simulated MPI ranks. Each rank starts with only
// the Green's functions of its owned (kz, E) pairs and (qz, ω) points —
// the distribution the GF phase leaves behind — performs the Nqz·Nω
// broadcast/replicate/reduce rounds of §6.1.2, computes its masked portion
// of Eqs. (2)–(3) with the unmodified OMEN kernel, and reduces the partial
// Π≷ to the phonon owners.
//
// The returned Output is the full result gathered on rank 0 (for
// verification), and Stats are the communication counters measured before
// the verification gather.
func RunOMEN(w *comm.World, in *sse.Input, ranks int) (*sse.Output, comm.Stats, error) {
	p := in.Dev.P
	l := NewOMENLayout(p, ranks)
	var stats comm.Stats
	final := newGathered(in)

	err := w.Run(func(c *comm.Comm) error {
		r := c.Rank()
		local := localInput(in, func(ik, ie int) bool { return l.pairOwner(ik, ie) == r },
			func(iq, m int) bool { return l.phononOwner(iq, m) == r })

		// ── Round structure 1: broadcast each phonon point to everyone.
		for iq := 0; iq < l.Nqz; iq++ {
			for m := 1; m <= l.Nomega; m++ {
				owner := l.phononOwner(iq, m)
				var payload []complex128
				if owner == r {
					payload = concat(phononPlane(local.DL, iq, m), phononPlane(local.DG, iq, m))
				}
				got := c.Bcast(owner, payload)
				if owner != r {
					half := len(got) / 2
					copy(phononPlane(local.DL, iq, m), got[:half])
					copy(phononPlane(local.DG, iq, m), got[half:])
				}
			}
		}

		// ── Round structure 2: replicate G≷ point-to-point to the stencil
		// neighbours (2·Nqz·Nω destinations per owned pair). Sends never
		// block on the simulated fabric, so all sends precede all receives.
		forEachGTransfer(l, func(srcIK, srcIE, dstIK, dstIE, tag int) {
			src := l.pairOwner(srcIK, srcIE)
			dst := l.pairOwner(dstIK, dstIE)
			if src != r || dst == r {
				return
			}
			c.Send(dst, tag, concat(electronPlane(local.GL, srcIK, srcIE), electronPlane(local.GG, srcIK, srcIE)))
		})
		forEachGTransfer(l, func(srcIK, srcIE, dstIK, dstIE, tag int) {
			src := l.pairOwner(srcIK, srcIE)
			dst := l.pairOwner(dstIK, dstIE)
			if dst != r || src == r {
				return
			}
			got := c.Recv(src, tag)
			half := len(got) / 2
			copy(electronPlane(local.GL, srcIK, srcIE), got[:half])
			copy(electronPlane(local.GG, srcIK, srcIE), got[half:])
		})

		// ── Local computation with the pair mask.
		out := (sse.OMEN{Mask: func(ik, ie int) bool { return l.pairOwner(ik, ie) == r }}).Compute(local)

		// ── Round structure 3: reduce partial Π≷ to the phonon owners.
		for iq := 0; iq < l.Nqz; iq++ {
			for m := 1; m <= l.Nomega; m++ {
				owner := l.phononOwner(iq, m)
				tag := 1 << 28 // distinct tag space from the G transfers
				tag += iq*l.Nomega + (m - 1)
				if owner != r {
					c.Send(owner, tag, concat(phononPlane(out.PiL, iq, m), phononPlane(out.PiG, iq, m)))
					continue
				}
				for src := 0; src < c.Size(); src++ {
					if src == r {
						continue
					}
					got := c.Recv(src, tag)
					half := len(got) / 2
					addInto(phononPlane(out.PiL, iq, m), got[:half])
					addInto(phononPlane(out.PiG, iq, m), got[half:])
				}
			}
		}

		// Snapshot the measured traffic before the verification gather.
		if r == 0 {
			c.Barrier()
			stats = w.Stats()
			c.Barrier()
		} else {
			c.Barrier()
			c.Barrier()
		}

		gatherOMEN(c, l, out, final)
		return nil
	})
	if err != nil {
		return nil, comm.Stats{}, err
	}
	return final, stats, nil
}

// forEachGTransfer enumerates every point-to-point G replication of the
// OMEN scheme in a deterministic global order. For each owned pair and
// each (qz, ω) the Green's function travels to the owners of the two
// stencil partners (kz+qz, E±ω). The tag is unique per logical transfer.
func forEachGTransfer(l *OMENLayout, f func(srcIK, srcIE, dstIK, dstIE, tag int)) {
	tag := 0
	for ik := 0; ik < l.Nkz; ik++ {
		for ie := 0; ie < l.NE; ie++ {
			for iq := 0; iq < l.Nqz; iq++ {
				for m := 1; m <= l.Nomega; m++ {
					ikd := (ik + iq) % l.Nkz
					for _, sign := range [2]int{+1, -1} {
						ied := ie + sign*m
						tag++
						if ied < 0 || ied >= l.NE {
							continue
						}
						f(ik, ie, ikd, ied, tag)
					}
				}
			}
		}
	}
}

// gatherOMEN assembles the full output on rank 0 from the owners.
func gatherOMEN(c *comm.Comm, l *OMENLayout, out *sse.Output, final *sse.Output) {
	const base = 1 << 29
	r := c.Rank()
	// Electron self-energies live with their pair owners.
	for ik := 0; ik < l.Nkz; ik++ {
		for ie := 0; ie < l.NE; ie++ {
			owner := l.pairOwner(ik, ie)
			tag := base + ik*l.NE + ie
			switch {
			case owner == 0 && r == 0:
				copy(electronPlane(final.SigL, ik, ie), electronPlane(out.SigL, ik, ie))
				copy(electronPlane(final.SigG, ik, ie), electronPlane(out.SigG, ik, ie))
			case owner == r:
				c.Send(0, tag, concat(electronPlane(out.SigL, ik, ie), electronPlane(out.SigG, ik, ie)))
			case r == 0:
				got := c.Recv(owner, tag)
				half := len(got) / 2
				copy(electronPlane(final.SigL, ik, ie), got[:half])
				copy(electronPlane(final.SigG, ik, ie), got[half:])
			}
		}
	}
	// Phonon self-energies live with their point owners.
	for iq := 0; iq < l.Nqz; iq++ {
		for m := 1; m <= l.Nomega; m++ {
			owner := l.phononOwner(iq, m)
			tag := base + 1<<20 + iq*l.Nomega + m
			switch {
			case owner == 0 && r == 0:
				copy(phononPlane(final.PiL, iq, m), phononPlane(out.PiL, iq, m))
				copy(phononPlane(final.PiG, iq, m), phononPlane(out.PiG, iq, m))
			case owner == r:
				c.Send(0, tag, concat(phononPlane(out.PiL, iq, m), phononPlane(out.PiG, iq, m)))
			case r == 0:
				got := c.Recv(owner, tag)
				half := len(got) / 2
				copy(phononPlane(final.PiL, iq, m), got[:half])
				copy(phononPlane(final.PiG, iq, m), got[half:])
			}
		}
	}
}

// ── shared helpers ──

// localInput builds a rank's starting state: zeroed global-shape tensors
// holding only the owned electron pairs and phonon points.
func localInput(in *sse.Input, ownPair func(ik, ie int) bool, ownPh func(iq, m int) bool) *sse.Input {
	local := &sse.Input{
		Dev: in.Dev,
		GL:  tensor.NewElectron(in.GL.Nkz, in.GL.NE, in.GL.Na, in.GL.Norb),
		GG:  tensor.NewElectron(in.GL.Nkz, in.GL.NE, in.GL.Na, in.GL.Norb),
		DL:  tensor.NewPhonon(in.DL.Nqz, in.DL.Nw, in.DL.Off, in.DL.N3D),
		DG:  tensor.NewPhonon(in.DL.Nqz, in.DL.Nw, in.DL.Off, in.DL.N3D),
	}
	for ik := 0; ik < in.GL.Nkz; ik++ {
		for ie := 0; ie < in.GL.NE; ie++ {
			if !ownPair(ik, ie) {
				continue
			}
			copy(electronPlane(local.GL, ik, ie), electronPlane(in.GL, ik, ie))
			copy(electronPlane(local.GG, ik, ie), electronPlane(in.GG, ik, ie))
		}
	}
	for iq := 0; iq < in.DL.Nqz; iq++ {
		for m := 1; m <= in.DL.Nw; m++ {
			if !ownPh(iq, m) {
				continue
			}
			copy(phononPlane(local.DL, iq, m), phononPlane(in.DL, iq, m))
			copy(phononPlane(local.DG, iq, m), phononPlane(in.DG, iq, m))
		}
	}
	return local
}

// electronPlane returns the contiguous all-atom slice of one (kz, E) point.
func electronPlane(t *tensor.Electron, ik, ie int) []complex128 {
	return t.Plane(ik, ie)
}

// phononPlane returns the contiguous all-atom slice of one (qz, ω) point
// (m ∈ [1, Nω]).
func phononPlane(t *tensor.Phonon, iq, m int) []complex128 {
	return t.Plane(iq, m-1)
}

func concat(a, b []complex128) []complex128 {
	out := make([]complex128, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func addInto(dst, src []complex128) {
	for i, v := range src {
		dst[i] += v
	}
}

// newGathered allocates a full-shape output container for verification.
func newGathered(in *sse.Input) *sse.Output {
	return &sse.Output{
		SigL: tensor.NewElectron(in.GL.Nkz, in.GL.NE, in.GL.Na, in.GL.Norb),
		SigG: tensor.NewElectron(in.GL.Nkz, in.GL.NE, in.GL.Na, in.GL.Norb),
		PiL:  tensor.NewPhonon(in.DL.Nqz, in.DL.Nw, in.DL.Off, in.DL.N3D),
		PiG:  tensor.NewPhonon(in.DL.Nqz, in.DL.Nw, in.DL.Off, in.DL.N3D),
	}
}
