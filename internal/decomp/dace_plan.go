package decomp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/half"
	"repro/internal/sse"
)

// Precision selects the numeric and wire format of an SSE exchange.
type Precision int

const (
	// FP64 is the full-width baseline: fp64 tile kernel, complex128
	// payloads on every Alltoallv.
	FP64 Precision = iota
	// Mixed is the §5.4 path threaded through the distributed exchange:
	// the tile runs the normalized mixed-precision SSE kernel, and all
	// four Alltoallv exchanges ship split-complex binary16 wire payloads
	// (internal/half's wire format) with per-block normalization factors
	// and automatic fp64 fallback for unquantizable blocks.
	Mixed
)

func (p Precision) String() string {
	if p == Mixed {
		return "mixed"
	}
	return "fp64"
}

// ParsePrecision maps the CLI spelling to a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "fp64":
		return FP64, nil
	case "mixed":
		return Mixed, nil
	}
	return FP64, fmt.Errorf("decomp: unknown precision %q (want fp64 or mixed)", s)
}

// DaCePlan stages the communication-avoiding SSE phase of one rank into
// its pack / unpack / compute pieces, so both execution styles share one
// implementation:
//
//   - the blocking ExchangeDaCe drives the stages back-to-back through
//     Alltoallv, reproducing the bulk-synchronous phase exactly;
//   - the task-graph runtime (internal/dist with ScheduleOverlap) posts
//     each pack through comm.IAlltoallv as soon as its inputs exist and
//     overlaps the waits with unrelated compute.
//
// The stage pairs are (#1 G≷, #2 D≷, #3 Σ≷, #4 Π≷) of the Fig. 5 (right)
// scheme. Each is one exchange descriptor — the tensor pair, the segment
// length, copy-or-accumulate on arrival, and a single enumerator of the
// segments rank s ships to rank d in wire order — from which the generic
// pack and unpack derive both endpoints (the paper's memlet: a movement
// described once). Both drivers go through them, so the overlapped
// execution is bitwise equal to the bulk-synchronous one.
type DaCePlan struct {
	l        *DaCeLayout
	src      *OMENLayout
	atomSets [][]int
	in       *sse.Input
	out      *sse.Output

	rank       int
	ranks      int
	myTa, myTe int
	bl, pbl    int

	prec  Precision
	probe bool
	// Probe accumulators, written by ComputeTile and read after
	// (graph-ordered): absolute ∞-norm deviation and reference ∞-norm of
	// this tile's output, per tensor class ([0] Σ≷ pair, [1] Π≷ pair).
	probeDev, probeRef [2]float64

	offRankBytes   atomic.Int64 // post nodes may pack concurrently
	fallbackBlocks atomic.Int64 // fp64-passthrough segments under Mixed
}

// NewDaCePlan builds the plan for one rank of the world. local holds
// full-shape tensors with the rank's owned electron pairs and phonon
// points filled (per src); its non-owned halo planes are overwritten by
// the unpack stages.
func NewDaCePlan(rank int, l *DaCeLayout, src *OMENLayout, atomSets [][]int, local *sse.Input) *DaCePlan {
	myTa, myTe := l.TileOf(rank)
	return &DaCePlan{
		l: l, src: src, atomSets: atomSets, in: local,
		rank: rank, ranks: l.P(), myTa: myTa, myTe: myTe,
		bl:  local.GL.BlockLen(),
		pbl: local.DL.BlockLen() * local.DL.NbP1,
	}
}

// WithPrecision selects the plan's numeric/wire format (default FP64)
// and returns the plan for chaining. Must be set before any pack stage.
func (pl *DaCePlan) WithPrecision(p Precision) *DaCePlan {
	pl.prec = p
	return pl
}

// WithErrorProbe makes ComputeTile additionally run the fp64 reference
// kernel on the same (wire-decoded) inputs and record the normwise
// relative deviation of the mixed tile's Σ≷/Π≷ — the per-iteration
// precision-error telemetry. Doubles the tile compute; diagnostics only.
func (pl *DaCePlan) WithErrorProbe() *DaCePlan {
	pl.probe = true
	return pl
}

// ProbeDeviation returns the probe's absolute ∞-norm deviation and
// reference ∞-norm per tensor class ([0] Σ≷, [1] Π≷), valid after
// ComputeTile (all zero without WithErrorProbe or under FP64). The
// caller forms the relative deviation only after max-reducing both
// numbers across ranks: a tile's Π≷ partial can cancel to near zero
// locally while the global field is large, so a locally formed ratio
// would wildly overstate the error.
func (pl *DaCePlan) ProbeDeviation() (dev, ref [2]float64) {
	return pl.probeDev, pl.probeRef
}

// OffRankBytes reports the payload packed for other ranks so far — the
// measured SSE traffic this rank generates, matching what the comm layer
// counts when the buffers are posted. Under Mixed precision this is the
// encoded wire volume, i.e. what actually crosses the network.
func (pl *DaCePlan) OffRankBytes() int64 { return pl.offRankBytes.Load() }

// FallbackBlocks reports how many segments the mixed-precision encoder
// shipped as verbatim fp64 passthrough so far (always 0 under FP64) —
// the precision-degradation telemetry counterpart of OffRankBytes.
func (pl *DaCePlan) FallbackBlocks() int64 { return pl.fallbackBlocks.Load() }

// encode wraps a packed buffer in the half-width wire format when the
// plan runs mixed precision; seg is the pack loop's append unit.
func (pl *DaCePlan) encode(buf []complex128, seg int) []complex128 {
	if pl.prec != Mixed || len(buf) == 0 {
		return buf
	}
	out := half.WireEncode(buf, seg)
	if n := half.WireFallbacks(out, seg); n > 0 {
		pl.fallbackBlocks.Add(int64(n))
	}
	return out
}

// decode undoes encode on an arrived buffer.
func (pl *DaCePlan) decode(buf []complex128, seg int) []complex128 {
	if pl.prec != Mixed || len(buf) == 0 {
		return buf
	}
	return half.WireDecode(buf, seg)
}

// Output returns the tile results (valid after UnpackSigma/UnpackPi).
func (pl *DaCePlan) Output() *sse.Output { return pl.out }

// exchange describes one of the four Fig. 5 data movements once; pack
// derives the sender's side from it and unpack the receiver's, so the two
// cannot disagree on which segments travel or in which order.
type exchange struct {
	// lesser and greater are the flat storage of the ≷ tensor pair that
	// travels; one wire segment is seg values of each, lesser first.
	lesser, greater []complex128
	seg             int
	// accumulate sums arrivals into the destination (the Π≷ tile
	// partials) instead of overwriting it.
	accumulate bool
	// segments lists, in wire order, the storage offset of every segment
	// rank from ships to rank to — the same offset on both ranks, since
	// all hold full-shape tensors.
	segments func(from, to int) []int
}

// electronSegments lists the blocks of (kz, E ∈ [elo, ehi), atom ∈ atoms)
// whose (kz, E) pair rank owner owns.
func (pl *DaCePlan) electronSegments(elo, ehi, owner int, atoms []int) []int {
	var offs []int
	for ik := 0; ik < pl.in.GL.Nkz; ik++ {
		for ie := elo; ie < ehi; ie++ {
			if pl.src.PairOwner(ik, ie) != owner {
				continue
			}
			for _, a := range atoms {
				offs = append(offs, pl.in.GL.Index(ik, ie, a))
			}
		}
	}
	return offs
}

// phononSegments lists the (atom ∈ atoms, all neighbour slots) rows of
// every (qz, ω) point rank owner owns.
func (pl *DaCePlan) phononSegments(owner int, atoms []int) []int {
	var offs []int
	for iq := 0; iq < pl.in.DL.Nqz; iq++ {
		for m := 1; m <= pl.in.DL.Nw; m++ {
			if pl.src.PhononOwner(iq, m) != owner {
				continue
			}
			for _, a := range atoms {
				offs = append(offs, pl.in.DL.Index(iq, m-1, a, 0))
			}
		}
	}
	return offs
}

// The four exchanges of the Fig. 5 (right) scheme. Inputs travel from the
// GF-phase owner to every tile that reads them; results travel back from
// the tile that computed them to the owner.

// exchangeG is #1: owned G≷ pairs to each tile's (atom set + halo, energy
// range + 2Nω halo).
func (pl *DaCePlan) exchangeG() exchange {
	return exchange{lesser: pl.in.GL.Data, greater: pl.in.GG.Data, seg: pl.bl,
		segments: func(from, to int) []int {
			ta, te := pl.l.TileOf(to)
			elo, ehi := pl.l.EnergyHalo(te)
			return pl.electronSegments(elo, ehi, from, pl.atomSets[ta])
		}}
}

// exchangeD is #2: owned D≷ points to each tile's atom set, all (qz, ω).
func (pl *DaCePlan) exchangeD() exchange {
	return exchange{lesser: pl.in.DL.Data, greater: pl.in.DG.Data, seg: pl.pbl,
		segments: func(from, to int) []int {
			ta, _ := pl.l.TileOf(to)
			return pl.phononSegments(from, pl.atomSets[ta])
		}}
}

// exchangeSigma is #3: a tile's Σ≷ pieces (its owned atoms × energy
// range) back to the pair owners. Requires ComputeTile.
func (pl *DaCePlan) exchangeSigma() exchange {
	return exchange{lesser: pl.out.SigL.Data, greater: pl.out.SigG.Data, seg: pl.bl,
		segments: func(from, to int) []int {
			ta, te := pl.l.TileOf(from)
			elo, ehi := pl.l.EnergyRange(te)
			return pl.electronSegments(elo, ehi, to, pl.l.OwnedAtoms(ta))
		}}
}

// exchangePi is #4: a tile's Π≷ partials to the phonon point owners,
// summed on arrival in ascending tile order — the association order the
// sequential kernel uses. Requires ComputeTile.
func (pl *DaCePlan) exchangePi() exchange {
	return exchange{lesser: pl.out.PiL.Data, greater: pl.out.PiG.Data, seg: pl.pbl, accumulate: true,
		segments: func(from, to int) []int {
			ta, _ := pl.l.TileOf(from)
			return pl.phononSegments(to, pl.l.OwnedAtoms(ta))
		}}
}

// pack builds this rank's send buffers of x, one per destination; the
// rank's own share stays in place (nil buffer).
func (pl *DaCePlan) pack(x exchange) [][]complex128 {
	send := make([][]complex128, pl.ranks)
	for dst := range send {
		if dst == pl.rank {
			continue
		}
		var buf []complex128
		if offs := x.segments(pl.rank, dst); len(offs) > 0 {
			buf = make([]complex128, 0, 2*x.seg*len(offs))
			for _, o := range offs {
				buf = append(buf, x.lesser[o:o+x.seg]...)
				buf = append(buf, x.greater[o:o+x.seg]...)
			}
		}
		buf = pl.encode(buf, 2*x.seg)
		pl.offRankBytes.Add(int64(len(buf)) * 16)
		send[dst] = buf
	}
	return send
}

// unpack lands the other ranks' buffers of x in this rank's tensors, in
// ascending source order.
func (pl *DaCePlan) unpack(x exchange, recv [][]complex128) {
	land := func(dst, src []complex128) { copy(dst, src) }
	if x.accumulate {
		land = addInto
	}
	for from := range recv {
		if from == pl.rank {
			continue
		}
		buf := pl.decode(recv[from], 2*x.seg)
		for _, o := range x.segments(from, pl.rank) {
			land(x.lesser[o:o+x.seg], buf[:x.seg])
			land(x.greater[o:o+x.seg], buf[x.seg:2*x.seg])
			buf = buf[2*x.seg:]
		}
	}
}

// The exported stages: Pack* returns the send buffers of one exchange for
// Alltoallv, Unpack* takes its arrivals.
func (pl *DaCePlan) PackG() [][]complex128     { return pl.pack(pl.exchangeG()) }
func (pl *DaCePlan) PackD() [][]complex128     { return pl.pack(pl.exchangeD()) }
func (pl *DaCePlan) PackSigma() [][]complex128 { return pl.pack(pl.exchangeSigma()) }
func (pl *DaCePlan) PackPi() [][]complex128    { return pl.pack(pl.exchangePi()) }

func (pl *DaCePlan) UnpackG(recv [][]complex128)     { pl.unpack(pl.exchangeG(), recv) }
func (pl *DaCePlan) UnpackD(recv [][]complex128)     { pl.unpack(pl.exchangeD(), recv) }
func (pl *DaCePlan) UnpackSigma(recv [][]complex128) { pl.unpack(pl.exchangeSigma(), recv) }
func (pl *DaCePlan) UnpackPi(recv [][]complex128)    { pl.unpack(pl.exchangePi(), recv) }

// ComputeTile runs the restricted SSE kernel on this tile (requires
// UnpackG and UnpackD): the fp64 DaCe schedule, or under Mixed precision
// the SBSMM-backed normalized binary16 kernel of §5.4. With the error
// probe enabled, the fp64 kernel additionally runs on the identical
// (wire-decoded) inputs and the normwise relative deviation of the mixed
// Σ≷/Π≷ is recorded for the telemetry reduction.
func (pl *DaCePlan) ComputeTile() {
	elo, ehi := pl.l.EnergyRange(pl.myTe)
	atoms := pl.l.OwnedAtoms(pl.myTa)
	if elo == ehi {
		// More energy tiles than energies: this rank owns none. The kernel
		// takes no empty energy range (0, 0 is its spelling of "all"), so
		// the empty tile is the one over no atoms.
		atoms, elo, ehi = atoms[:0], 0, 0
	}
	if pl.prec != Mixed {
		pl.out = (sse.DaCe{Atoms: atoms, ELo: elo, EHi: ehi}).Compute(pl.in)
		return
	}
	pl.out = (sse.Mixed{Normalize: true, Atoms: atoms, ELo: elo, EHi: ehi}).Compute(pl.in)
	if pl.probe {
		ref := (sse.DaCe{Atoms: atoms, ELo: elo, EHi: ehi}).Compute(pl.in)
		pl.probeDev[0], pl.probeRef[0] = normDev(pl.out.SigL.Data, ref.SigL.Data)
		d, r := normDev(pl.out.SigG.Data, ref.SigG.Data)
		pl.probeDev[0], pl.probeRef[0] = max(pl.probeDev[0], d), max(pl.probeRef[0], r)
		pl.probeDev[1], pl.probeRef[1] = normDev(pl.out.PiL.Data, ref.PiL.Data)
		d, r = normDev(pl.out.PiG.Data, ref.PiG.Data)
		pl.probeDev[1], pl.probeRef[1] = max(pl.probeDev[1], d), max(pl.probeRef[1], r)
	}
}

// normDev returns ‖got − ref‖∞ and ‖ref‖∞.
func normDev(got, ref []complex128) (dev, scale float64) {
	for i, r := range ref {
		if a := cabs(r); a > scale {
			scale = a
		}
		if d := cabs(got[i] - r); d > dev {
			dev = d
		}
	}
	return dev, scale
}

// cabs is max(|Re|, |Im|) — the magnitude metric the normalization
// factors use, cheaper than the complex modulus and within √2 of it.
func cabs(v complex128) float64 {
	re, im := real(v), imag(v)
	if re < 0 {
		re = -re
	}
	if im < 0 {
		im = -im
	}
	if im > re {
		return im
	}
	return re
}

// Nonblocking slots for the four exchanges plus the observable reduction
// of the distributed loop — one slot per concurrently outstanding
// collective (see comm: slots match across ranks regardless of the order
// a dynamic schedule posts them in).
const (
	SlotG = iota
	SlotD
	SlotSigma
	SlotPi
	SlotObs
)

// PostG posts exchange #1 as soon as the owned G≷ pairs exist.
func (pl *DaCePlan) PostG(c *comm.Comm) *comm.MatRequest { return c.IAlltoallv(SlotG, pl.PackG()) }

// PostD posts exchange #2 as soon as the owned D≷ points exist.
func (pl *DaCePlan) PostD(c *comm.Comm) *comm.MatRequest { return c.IAlltoallv(SlotD, pl.PackD()) }

// PostSigma posts exchange #3 after ComputeTile.
func (pl *DaCePlan) PostSigma(c *comm.Comm) *comm.MatRequest {
	return c.IAlltoallv(SlotSigma, pl.PackSigma())
}

// PostPi posts exchange #4 after ComputeTile.
func (pl *DaCePlan) PostPi(c *comm.Comm) *comm.MatRequest {
	return c.IAlltoallv(SlotPi, pl.PackPi())
}
