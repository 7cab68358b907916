package decomp

import (
	"fmt"
	"slices"
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
//   - the blocking RunDaCe drives the stages back-to-back through
//     Alltoallv, reproducing the bulk-synchronous phase exactly;
//   - the task-graph runtime (internal/dist, under every schedule) posts
//     each pack through comm.IAlltoallv as soon as its inputs exist and,
//     on a pool of more than one worker, overlaps the waits with
//     unrelated compute.
//
// The stage pairs are (#1 G≷, #2 D≷, #3 Σ≷, #4 Π≷) of the Fig. 5 (right)
// scheme. Each is one exchange descriptor — the tensor pair, the segment
// length, copy-or-accumulate on arrival, and a single enumerator of the
// segments rank s ships to rank d in wire order — from which the generic
// pack and unpack derive both endpoints (the paper's memlet: a movement
// described once). Both drivers go through them, so the overlapped
// execution is bitwise equal to the bulk-synchronous one.
//
// A plan is built once and may run any number of iterations: it owns the
// tile output, the compiled tile with its scratch, every exchange's
// segment offsets (enumerated at construction) and its wire buffers, so a
// reused plan allocates nothing of its own after its first iteration.
type DaCePlan struct {
	l        *DaCeLayout
	src      *OMENLayout
	atomSets [][]int
	in       *sse.Input
	out      *sse.Output // zeroed and rewritten by every ComputeTile
	xs       [4]exchange // #1 G≷, #2 D≷, #3 Σ≷, #4 Π≷

	// tile is compiled by the first ComputeTile (the precision is chosen
	// after construction); probeTile and probeOut are the fp64 reference
	// of the error probe.
	tile, probeTile *sse.Tile
	probeOut        *sse.Output

	rank       int
	ranks      int
	myTa, myTe int
	bl, pbl    int

	prec   Precision
	probe  bool
	kernel sse.Kernel // WithKernel: the whole-grid kernel of a one-rank plan
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
	myTa, myTe := l.tileOf(rank)
	pl := &DaCePlan{
		l: l, src: src, atomSets: atomSets, in: local, out: sse.NewOutput(local),
		rank: rank, ranks: l.procs(), myTa: myTa, myTe: myTe,
		bl:  local.GL.BlockLen(),
		pbl: local.DL.BlockLen() * local.DL.NbP1,
	}
	pl.xs = [4]exchange{pl.exchangeG(), pl.exchangeD(), pl.exchangeSigma(), pl.exchangePi()}
	return pl
}

// WithPrecision selects the plan's numeric/wire format (default FP64)
// and returns the plan for chaining. Must be set before any pack stage
// (the first ComputeTile compiles the tile of the precision).
func (pl *DaCePlan) WithPrecision(p Precision) *DaCePlan {
	pl.prec = p
	return pl
}

// WithKernel makes ComputeTile run k over the whole input in place of
// the tile kernel of the plan's precision, and returns the plan for
// chaining. It is for one-rank plans only, whose one tile is the whole
// grid (dist.Options.Validate refuses a kernel above one rank).
func (pl *DaCePlan) WithKernel(k sse.Kernel) *DaCePlan {
	pl.kernel = k
	return pl
}

// WithErrorProbe makes ComputeTile additionally run the fp64 reference
// kernel on the same (wire-decoded) inputs and record the normwise
// relative deviation of the mixed tile's Σ≷/Π≷ — the per-iteration
// precision-error telemetry. Doubles the tile compute; diagnostics only.
// Must be set before the first ComputeTile.
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

// ResetCounters zeroes OffRankBytes and FallbackBlocks, so a plan reused
// for another iteration reports that iteration's traffic alone.
func (pl *DaCePlan) ResetCounters() {
	pl.offRankBytes.Store(0)
	pl.fallbackBlocks.Store(0)
}

// FallbackBlocks reports how many segments the mixed-precision encoder
// shipped as verbatim fp64 passthrough so far (always 0 under FP64) —
// the precision-degradation telemetry counterpart of OffRankBytes.
func (pl *DaCePlan) FallbackBlocks() int64 { return pl.fallbackBlocks.Load() }

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
	// send[to] lists, in wire order, the storage offset of every segment
	// this rank ships to rank to, and recv[from] those rank from ships
	// here — the same offset on both ranks, since all hold full-shape
	// tensors. Both are enumerated once, when the plan is built; a rank's
	// own share stays in place and has no list.
	send, recv [][]int

	// The exchange's buffers, reused every iteration (the comm layer
	// copies a payload when it is posted): per destination the packed
	// payload, its wire encoding under Mixed and the list handed to the
	// post, and the decoding of one arrival.
	packed, wire, post [][]complex128
	decoded            []complex128
}

// newExchange describes the movement of the ≷ pair whose segments(from,
// to) lists the offsets rank from ships to rank to, enumerating this
// rank's send and receive lists once.
func (pl *DaCePlan) newExchange(lesser, greater []complex128, seg int, accumulate bool, segments func(from, to int) []int) exchange {
	x := exchange{lesser: lesser, greater: greater, seg: seg, accumulate: accumulate,
		send: make([][]int, pl.ranks), recv: make([][]int, pl.ranks),
		packed: make([][]complex128, pl.ranks), wire: make([][]complex128, pl.ranks),
		post: make([][]complex128, pl.ranks)}
	for peer := range x.send {
		if peer != pl.rank {
			x.send[peer] = segments(pl.rank, peer)
			x.recv[peer] = segments(peer, pl.rank)
		}
	}
	return x
}

// electronSegments lists the blocks of (kz, E ∈ [elo, ehi), atom ∈ atoms)
// whose (kz, E) pair rank owner owns.
func (pl *DaCePlan) electronSegments(elo, ehi, owner int, atoms []int) []int {
	var offs []int
	for ik := 0; ik < pl.in.GL.Nkz; ik++ {
		for ie := elo; ie < ehi; ie++ {
			if pl.src.pairOwner(ik, ie) != owner {
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
			if pl.src.phononOwner(iq, m) != owner {
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
	return pl.newExchange(pl.in.GL.Data, pl.in.GG.Data, pl.bl, false, func(from, to int) []int {
		ta, te := pl.l.tileOf(to)
		elo, ehi := pl.l.EnergyHalo(te)
		return pl.electronSegments(elo, ehi, from, pl.atomSets[ta])
	})
}

// exchangeD is #2: owned D≷ points to each tile's atom set, all (qz, ω).
func (pl *DaCePlan) exchangeD() exchange {
	return pl.newExchange(pl.in.DL.Data, pl.in.DG.Data, pl.pbl, false, func(from, to int) []int {
		ta, _ := pl.l.tileOf(to)
		return pl.phononSegments(from, pl.atomSets[ta])
	})
}

// exchangeSigma is #3: a tile's Σ≷ pieces (its owned atoms × energy
// range) back to the pair owners. Packed after ComputeTile.
func (pl *DaCePlan) exchangeSigma() exchange {
	return pl.newExchange(pl.out.SigL.Data, pl.out.SigG.Data, pl.bl, false, func(from, to int) []int {
		ta, te := pl.l.tileOf(from)
		elo, ehi := pl.l.energyRange(te)
		return pl.electronSegments(elo, ehi, to, pl.l.ownedAtoms(ta))
	})
}

// exchangePi is #4: a tile's Π≷ partials to the phonon point owners,
// summed on arrival in ascending tile order — the association order the
// sequential kernel uses. Packed after ComputeTile.
func (pl *DaCePlan) exchangePi() exchange {
	return pl.newExchange(pl.out.PiL.Data, pl.out.PiG.Data, pl.pbl, true, func(from, to int) []int {
		ta, _ := pl.l.tileOf(from)
		return pl.phononSegments(to, pl.l.ownedAtoms(ta))
	})
}

// pack fills this rank's send buffers of x, one per destination, in the
// exchange's own storage (valid until its next pack); the rank's own
// share stays in place (nil buffer). Under Mixed each buffer ships in the
// half-width wire format.
func (pl *DaCePlan) pack(x *exchange) [][]complex128 {
	for dst, offs := range x.send {
		if dst == pl.rank {
			continue
		}
		buf := slices.Grow(x.packed[dst][:0], 2*x.seg*len(offs))
		for _, o := range offs {
			buf = append(buf, x.lesser[o:o+x.seg]...)
			buf = append(buf, x.greater[o:o+x.seg]...)
		}
		x.packed[dst] = buf
		if pl.prec == Mixed && len(buf) > 0 {
			x.wire[dst] = half.AppendWireEncode(x.wire[dst][:0], buf, 2*x.seg)
			buf = x.wire[dst]
			if n := half.WireFallbacks(buf, 2*x.seg); n > 0 {
				pl.fallbackBlocks.Add(int64(n))
			}
		}
		pl.offRankBytes.Add(int64(len(buf)) * 16)
		x.post[dst] = buf
	}
	return x.post
}

// unpack lands the other ranks' buffers of x in this rank's tensors, in
// ascending source order.
func (pl *DaCePlan) unpack(x *exchange, recv [][]complex128) {
	land := func(dst, src []complex128) { copy(dst, src) }
	if x.accumulate {
		land = addInto
	}
	for from, offs := range x.recv {
		if from == pl.rank {
			continue
		}
		buf := recv[from]
		if pl.prec == Mixed && len(buf) > 0 {
			x.decoded = half.AppendWireDecode(x.decoded[:0], buf, 2*x.seg)
			buf = x.decoded
		}
		for _, o := range offs {
			land(x.lesser[o:o+x.seg], buf[:x.seg])
			land(x.greater[o:o+x.seg], buf[x.seg:2*x.seg])
			buf = buf[2*x.seg:]
		}
	}
}

// The exported stages: Pack* returns the send buffers of one exchange for
// Alltoallv (the plan's storage, rewritten by the stage's next pack),
// Unpack* takes its arrivals.
func (pl *DaCePlan) PackG() [][]complex128     { return pl.pack(&pl.xs[0]) }
func (pl *DaCePlan) PackD() [][]complex128     { return pl.pack(&pl.xs[1]) }
func (pl *DaCePlan) PackSigma() [][]complex128 { return pl.pack(&pl.xs[2]) }
func (pl *DaCePlan) PackPi() [][]complex128    { return pl.pack(&pl.xs[3]) }

func (pl *DaCePlan) UnpackG(recv [][]complex128)     { pl.unpack(&pl.xs[0], recv) }
func (pl *DaCePlan) UnpackD(recv [][]complex128)     { pl.unpack(&pl.xs[1], recv) }
func (pl *DaCePlan) UnpackSigma(recv [][]complex128) { pl.unpack(&pl.xs[2], recv) }
func (pl *DaCePlan) UnpackPi(recv [][]complex128)    { pl.unpack(&pl.xs[3], recv) }

// ComputeTile runs the restricted SSE kernel on this tile (requires
// UnpackG and UnpackD): the WithKernel kernel when one is set, else the
// fp64 DaCe schedule, or under Mixed precision
// the SBSMM-backed normalized binary16 kernel of §5.4. With the error
// probe enabled, the fp64 kernel additionally runs on the identical
// (wire-decoded) inputs and the normwise relative deviation of the mixed
// Σ≷/Π≷ is recorded for the telemetry reduction.
func (pl *DaCePlan) ComputeTile() {
	if pl.kernel != nil {
		res := pl.kernel.Compute(pl.in)
		copy(pl.out.SigL.Data, res.SigL.Data)
		copy(pl.out.SigG.Data, res.SigG.Data)
		copy(pl.out.PiL.Data, res.PiL.Data)
		copy(pl.out.PiG.Data, res.PiG.Data)
		pl.out.Stats = res.Stats
		return
	}
	if pl.tile == nil {
		pl.compileTile()
	}
	pl.tile.Compute(pl.in, pl.out)
	if pl.probeTile != nil {
		ref := pl.probeOut
		pl.probeTile.Compute(pl.in, ref)
		pl.probeDev[0], pl.probeRef[0] = normDev(pl.out.SigL.Data, ref.SigL.Data)
		d, r := normDev(pl.out.SigG.Data, ref.SigG.Data)
		pl.probeDev[0], pl.probeRef[0] = max(pl.probeDev[0], d), max(pl.probeRef[0], r)
		pl.probeDev[1], pl.probeRef[1] = normDev(pl.out.PiL.Data, ref.PiL.Data)
		d, r = normDev(pl.out.PiG.Data, ref.PiG.Data)
		pl.probeDev[1], pl.probeRef[1] = max(pl.probeDev[1], d), max(pl.probeRef[1], r)
	}
}

// compileTile builds the tile of the plan's precision — the fp64 DaCe
// schedule, or under Mixed the normalized binary16 kernel plus, with the
// probe, its fp64 reference.
func (pl *DaCePlan) compileTile() {
	elo, ehi := pl.l.energyRange(pl.myTe)
	atoms := pl.l.ownedAtoms(pl.myTa)
	if elo == ehi {
		// More energy tiles than energies: this rank owns none. The kernel
		// takes no empty energy range (0, 0 is its spelling of "all"), so
		// the empty tile is the one over no atoms.
		atoms, elo, ehi = atoms[:0], 0, 0
	}
	fp64 := sse.DaCe{Atoms: atoms, ELo: elo, EHi: ehi}
	if pl.prec != Mixed {
		pl.tile = fp64.NewTile(pl.in)
		return
	}
	pl.tile = (sse.Mixed{Normalize: true, Atoms: atoms, ELo: elo, EHi: ehi}).NewTile(pl.in)
	if pl.probe {
		pl.probeTile, pl.probeOut = fp64.NewTile(pl.in), sse.NewOutput(pl.in)
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
	slotG = iota
	slotD
	slotSigma
	slotPi
	SlotObs
)

// PostG posts exchange #1 as soon as the owned G≷ pairs exist.
func (pl *DaCePlan) PostG(c *comm.Comm) *comm.MatRequest { return c.IAlltoallv(slotG, pl.PackG()) }

// PostD posts exchange #2 as soon as the owned D≷ points exist.
func (pl *DaCePlan) PostD(c *comm.Comm) *comm.MatRequest { return c.IAlltoallv(slotD, pl.PackD()) }

// PostSigma posts exchange #3 after ComputeTile.
func (pl *DaCePlan) PostSigma(c *comm.Comm) *comm.MatRequest {
	return c.IAlltoallv(slotSigma, pl.PackSigma())
}

// PostPi posts exchange #4 after ComputeTile.
func (pl *DaCePlan) PostPi(c *comm.Comm) *comm.MatRequest {
	return c.IAlltoallv(slotPi, pl.PackPi())
}
