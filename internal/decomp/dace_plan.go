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
// scheme. Pack and unpack orders are identical between the two drivers,
// so the overlapped execution is bitwise equal to the bulk-synchronous
// one.
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

func (pl *DaCePlan) countOffRank(dst int, buf []complex128) {
	if dst != pl.rank {
		pl.offRankBytes.Add(int64(len(buf)) * 16)
	}
}

// PackG builds exchange #1: this rank's owned G≷ pairs for every tile's
// (atom set + halo, energy range + 2Nω halo).
func (pl *DaCePlan) PackG() [][]complex128 {
	p := pl.in.Dev.P
	send := make([][]complex128, pl.ranks)
	for dst := 0; dst < pl.ranks; dst++ {
		if dst == pl.rank {
			continue // own data stays in place
		}
		dTa, dTe := pl.l.TileOf(dst)
		elo, ehi := pl.l.EnergyHalo(dTe)
		var buf []complex128
		for ik := 0; ik < p.Nkz; ik++ {
			for ie := elo; ie < ehi; ie++ {
				if pl.src.PairOwner(ik, ie) != pl.rank {
					continue
				}
				for _, a := range pl.atomSets[dTa] {
					buf = append(buf, pl.in.GL.Block(ik, ie, a)...)
					buf = append(buf, pl.in.GG.Block(ik, ie, a)...)
				}
			}
		}
		buf = pl.encode(buf, 2*pl.bl)
		pl.countOffRank(dst, buf)
		send[dst] = buf
	}
	return send
}

// UnpackG scatters exchange #1's arrivals into this tile's G≷ halo.
func (pl *DaCePlan) UnpackG(recv [][]complex128) {
	p := pl.in.Dev.P
	elo, ehi := pl.l.EnergyHalo(pl.myTe)
	for from := 0; from < pl.ranks; from++ {
		if from == pl.rank {
			continue // own data never left
		}
		buf := pl.decode(recv[from], 2*pl.bl)
		pos := 0
		for ik := 0; ik < p.Nkz; ik++ {
			for ie := elo; ie < ehi; ie++ {
				if pl.src.PairOwner(ik, ie) != from {
					continue
				}
				for _, a := range pl.atomSets[pl.myTa] {
					copy(pl.in.GL.Block(ik, ie, a), buf[pos:pos+pl.bl])
					copy(pl.in.GG.Block(ik, ie, a), buf[pos+pl.bl:pos+2*pl.bl])
					pos += 2 * pl.bl
				}
			}
		}
	}
}

// PackD builds exchange #2: owned D≷ points for every tile's atom set,
// all (qz, ω).
func (pl *DaCePlan) PackD() [][]complex128 {
	p := pl.in.Dev.P
	send := make([][]complex128, pl.ranks)
	for dst := 0; dst < pl.ranks; dst++ {
		if dst == pl.rank {
			continue // own data stays in place
		}
		dTa, _ := pl.l.TileOf(dst)
		var buf []complex128
		for iq := 0; iq < p.Nqz(); iq++ {
			for m := 1; m <= p.Nomega; m++ {
				if pl.src.PhononOwner(iq, m) != pl.rank {
					continue
				}
				for _, a := range pl.atomSets[dTa] {
					o := pl.in.DL.Index(iq, m-1, a, 0)
					buf = append(buf, pl.in.DL.Data[o:o+pl.pbl]...)
					buf = append(buf, pl.in.DG.Data[o:o+pl.pbl]...)
				}
			}
		}
		buf = pl.encode(buf, 2*pl.pbl)
		pl.countOffRank(dst, buf)
		send[dst] = buf
	}
	return send
}

// UnpackD scatters exchange #2's arrivals into this tile's D≷ halo.
func (pl *DaCePlan) UnpackD(recv [][]complex128) {
	p := pl.in.Dev.P
	for from := 0; from < pl.ranks; from++ {
		if from == pl.rank {
			continue // own data never left
		}
		buf := pl.decode(recv[from], 2*pl.pbl)
		pos := 0
		for iq := 0; iq < p.Nqz(); iq++ {
			for m := 1; m <= p.Nomega; m++ {
				if pl.src.PhononOwner(iq, m) != from {
					continue
				}
				for _, a := range pl.atomSets[pl.myTa] {
					o := pl.in.DL.Index(iq, m-1, a, 0)
					copy(pl.in.DL.Data[o:o+pl.pbl], buf[pos:pos+pl.pbl])
					copy(pl.in.DG.Data[o:o+pl.pbl], buf[pos+pl.pbl:pos+2*pl.pbl])
					pos += 2 * pl.pbl
				}
			}
		}
	}
}

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

// PackSigma builds exchange #3: the tile's Σ≷ pieces back to the pair
// owners (requires ComputeTile).
func (pl *DaCePlan) PackSigma() [][]complex128 {
	p := pl.in.Dev.P
	elo, ehi := pl.l.EnergyRange(pl.myTe)
	owned := pl.l.OwnedAtoms(pl.myTa)
	send := make([][]complex128, pl.ranks)
	for dst := 0; dst < pl.ranks; dst++ {
		if dst == pl.rank {
			continue // own pieces stay in place
		}
		var buf []complex128
		for ik := 0; ik < p.Nkz; ik++ {
			for ie := elo; ie < ehi; ie++ {
				if pl.src.PairOwner(ik, ie) != dst {
					continue
				}
				for _, a := range owned {
					buf = append(buf, pl.out.SigL.Block(ik, ie, a)...)
					buf = append(buf, pl.out.SigG.Block(ik, ie, a)...)
				}
			}
		}
		buf = pl.encode(buf, 2*pl.bl)
		pl.countOffRank(dst, buf)
		send[dst] = buf
	}
	return send
}

// UnpackSigma assembles the owned pairs' Σ≷ from every tile's piece.
func (pl *DaCePlan) UnpackSigma(recv [][]complex128) {
	p := pl.in.Dev.P
	for from := 0; from < pl.ranks; from++ {
		if from == pl.rank {
			continue // own pieces never left
		}
		fTa, fTe := pl.l.TileOf(from)
		fLo, fHi := pl.l.EnergyRange(fTe)
		fOwned := pl.l.OwnedAtoms(fTa)
		buf := pl.decode(recv[from], 2*pl.bl)
		pos := 0
		for ik := 0; ik < p.Nkz; ik++ {
			for ie := fLo; ie < fHi; ie++ {
				if pl.src.PairOwner(ik, ie) != pl.rank {
					continue
				}
				for _, a := range fOwned {
					copy(pl.out.SigL.Block(ik, ie, a), buf[pos:pos+pl.bl])
					copy(pl.out.SigG.Block(ik, ie, a), buf[pos+pl.bl:pos+2*pl.bl])
					pos += 2 * pl.bl
				}
			}
		}
	}
}

// PackPi builds exchange #4: the tile's Π≷ partials to the phonon point
// owners (requires ComputeTile).
func (pl *DaCePlan) PackPi() [][]complex128 {
	p := pl.in.Dev.P
	owned := pl.l.OwnedAtoms(pl.myTa)
	send := make([][]complex128, pl.ranks)
	for dst := 0; dst < pl.ranks; dst++ {
		if dst == pl.rank {
			continue // own partials stay in place
		}
		var buf []complex128
		for iq := 0; iq < p.Nqz(); iq++ {
			for m := 1; m <= p.Nomega; m++ {
				if pl.src.PhononOwner(iq, m) != dst {
					continue
				}
				for _, a := range owned {
					o := pl.out.PiL.Index(iq, m-1, a, 0)
					buf = append(buf, pl.out.PiL.Data[o:o+pl.pbl]...)
					buf = append(buf, pl.out.PiG.Data[o:o+pl.pbl]...)
				}
			}
		}
		buf = pl.encode(buf, 2*pl.pbl)
		pl.countOffRank(dst, buf)
		send[dst] = buf
	}
	return send
}

// UnpackPi sums the other tiles' Π≷ partials into the owned points, in
// ascending tile order — the association order the sequential kernel and
// the bulk-synchronous exchange both use.
func (pl *DaCePlan) UnpackPi(recv [][]complex128) {
	p := pl.in.Dev.P
	for from := 0; from < pl.ranks; from++ {
		if from == pl.rank {
			continue // own partials already in place
		}
		fTa, _ := pl.l.TileOf(from)
		fOwned := pl.l.OwnedAtoms(fTa)
		buf := pl.decode(recv[from], 2*pl.pbl)
		pos := 0
		for iq := 0; iq < p.Nqz(); iq++ {
			for m := 1; m <= p.Nomega; m++ {
				if pl.src.PhononOwner(iq, m) != pl.rank {
					continue
				}
				for _, a := range fOwned {
					o := pl.out.PiL.Index(iq, m-1, a, 0)
					addInto(pl.out.PiL.Data[o:o+pl.pbl], buf[pos:pos+pl.pbl])
					addInto(pl.out.PiG.Data[o:o+pl.pbl], buf[pos+pl.pbl:pos+2*pl.pbl])
					pos += 2 * pl.pbl
				}
			}
		}
	}
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
