package sse

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/device"
	"repro/internal/linalg"
)

// DaCe is the data-centric SSE kernel after the Fig. 6 transformation
// chain: ❶ map fission materializes the ∇H·G≷ products as transients,
// ❷ the data layout places the energy axis contiguous ("constant stride"),
// ❸ the accumulated products collapse into strided-batched multiplications
// with a fixed right operand (SBSMM), and ❹ the maps are fused back per
// atom. The result is bit-wise the same self-energies as OMEN with ~6·Nω
// fewer matrix multiplications; the surviving work is scalar-weighted AXPY
// streams along the energy axis — one fused pass per source row and ω-sign
// updating the three directions of both ≷ accumulators — which is why SSE
// lands in the memory-bound region of the roofline (Fig. 10).
// Atoms optionally restricts the kernel to a subset of atoms (nil = all):
// Σ≷_aa and the Π≷_a* blocks are produced only for listed atoms. ELo/EHi
// restrict the electron energy range [ELo, EHi) owned by this instance
// (0,0 = full range): Σ≷ is written only at owned energies and Π≷ sums
// only over pairs whose base energy is owned. Together these express the
// Ta×TE tile of the communication-avoiding decomposition (Fig. 5, right);
// summing outputs over a partition of atoms×energies reproduces the full
// result. A tile reads G≷ only inside its halo window
// [ELo−Nω, EHi+Nω) ∩ [0, NE) — the "NE/TE + 2Nω energies" of §6.1.2 — and
// computes its transients only there.
type DaCe struct {
	Atoms    []int
	ELo, EHi int
}

// Name implements Kernel.
func (DaCe) Name() string { return "DaCe" }

// Compute implements Kernel. It panics, before any work starts, on a tile
// that does not fit the device.
func (d DaCe) Compute(in *Input) *Output {
	out := NewOutput(in)
	d.NewTile(in).Compute(in, out)
	return out
}

// restriction is the resolved tile: the atom list, the owned energy range
// and the halo window holding every energy the tile reads.
type restriction struct {
	atoms    []int
	elo, ehi int
	hlo, hhi int
}

// restrict resolves and validates the tile description against the device.
func (d DaCe) restrict(in *Input) (*restriction, error) {
	na, ne, nw := in.GL.Na, in.GL.NE, in.Dev.P.Nomega
	r := &restriction{atoms: d.Atoms, elo: d.ELo, ehi: d.EHi}
	if r.ehi == 0 {
		r.ehi = ne
	}
	if r.elo < 0 || r.elo >= r.ehi || r.ehi > ne {
		return nil, fmt.Errorf("sse: tile energies [ELo=%d, EHi=%d) are not a non-empty range inside [0, NE=%d)", d.ELo, d.EHi, ne)
	}
	if r.atoms == nil {
		r.atoms = make([]int, na)
		for i := range r.atoms {
			r.atoms[i] = i
		}
	}
	// A worker owns the output region of its atom, so a repeated atom
	// would be written from two goroutines.
	seen := make([]bool, na)
	for _, a := range r.atoms {
		if a < 0 || a >= na || seen[a] {
			return nil, fmt.Errorf("sse: tile of %d atoms, energies [%d, %d): atom %d is repeated or outside [0, Na=%d)", len(r.atoms), r.elo, r.ehi, a, na)
		}
		seen[a] = true
	}
	r.hlo, r.hhi = max(r.elo-nw, 0), min(r.ehi+nw, ne)
	return r, nil
}

func (d DaCe) mustRestrict(in *Input) *restriction {
	r, err := d.restrict(in)
	if err != nil {
		panic(err)
	}
	return r
}

// transient holds Norb×Norb blocks for one ordered pair over an energy
// window: layout [3 directions][Nkz][window][Norb²] with the energy axis
// contiguous per direction/momentum — the step-❷ data layout.
type transient struct {
	data   []complex128
	rowLen int // window·Norb²
	nkz    int
}

func newTransient(nkz, window, bl int) transient {
	return transient{data: make([]complex128, 3*nkz*window*bl), rowLen: window * bl, nkz: nkz}
}

// eRow returns the contiguous [window][Norb²] row for (direction, momentum) —
// the long vector the ω-stencil streams over and the strided batch the
// SBSMM operates on.
func (t *transient) eRow(i, ik int) []complex128 {
	o := (i*t.nkz + ik) * t.rowLen
	return t.data[o : o+t.rowLen : o+t.rowLen]
}

// dirRows returns the three direction rows of one momentum from element
// offset off on.
func (t *transient) dirRows(ik, off int) (r0, r1, r2 []complex128) {
	return t.eRow(0, ik)[off:], t.eRow(1, ik)[off:], t.eRow(2, ik)[off:]
}

// tileScratch is one worker's working set, sized by the tile and reused
// for every atom and neighbour the worker processes.
type tileScratch struct {
	pLab, pGab transient // ∇iH_ab·G≷_bb on the halo window: stencil sources
	pLba, pGba transient // ∇iH_ba·G≷_aa on the halo window: Π left operands
	vL, vG     transient // stage-❷ accumulators on the owned window, per j
	// Π right operands: the pLab/pGab blocks transposed, the three
	// directions interleaved, [Nkz][halo][Norb²][4] with a zero fourth
	// lane — the k×4 blocks linalg.SumMul3x4 consumes.
	yLab, yGab []complex128
	sigL, sigG []complex128 // Σ≷_aa rows [Nkz][owned][Norb²] of the current atom
	cBuf       []complex128 // SBSMM output row
	// transpose[r·Norb+c] = 4·(c·Norb+r): where interleaveTransposed puts
	// element (r, c) of a block, relative to the block's lane 0.
	transpose []int
}

// stencilRows points rows at elements [lo, hi) of the three direction
// rows of vL at momentum ik, then of vG: the destinations of one fused
// stage-❷ call.
func (s *tileScratch) stencilRows(rows *[6][]complex128, ik, lo, hi int) {
	for j := 0; j < 3; j++ {
		rows[j] = s.vL.eRow(j, ik)[lo:hi]
		rows[3+j] = s.vG.eRow(j, ik)[lo:hi]
	}
}

func newTileScratch(nkz, norb int, r *restriction) *tileScratch {
	bl := norb * norb
	halo, owned := r.hhi-r.hlo, r.ehi-r.elo
	return &tileScratch{
		pLab: newTransient(nkz, halo, bl), pGab: newTransient(nkz, halo, bl),
		pLba: newTransient(nkz, halo, bl), pGba: newTransient(nkz, halo, bl),
		vL: newTransient(nkz, owned, bl), vG: newTransient(nkz, owned, bl),
		yLab: make([]complex128, nkz*halo*bl*4), yGab: make([]complex128, nkz*halo*bl*4),
		sigL: make([]complex128, nkz*owned*bl), sigG: make([]complex128, nkz*owned*bl),
		cBuf:      make([]complex128, owned*bl),
		transpose: transposeTable(norb),
	}
}

func transposeTable(n int) []int {
	perm := make([]int, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			perm[r*n+c] = 4 * (c*n + r)
		}
	}
	return perm
}

// Tile is a DaCe or Mixed kernel compiled for one input shape: the
// resolved tile restriction, one scratch per worker and, under Mixed, the
// quantized copies of the inputs and of the coupling blocks. Compute runs
// it into a caller-owned Output, so a tile that is reused allocates
// nothing after its first call; the kernels' Compute(in) is the one-shot
// form over a fresh tile and output. A Tile runs one Compute at a time,
// on inputs shaped like (and on the device of) the one it was built for.
type Tile struct {
	dev   *device.Device
	restr *restriction
	mixed *mixedTile // nil: the fp64 schedule

	// The atoms run on one worker per CPU at most, the caller's
	// goroutine being worker 0. work[w] runs an atom on worker w's own
	// scratch; the list grows to the pool size on demand and is kept
	// across calls, and newWorker, built once, hands its entries out.
	pool      linalg.Pool
	work      []func(ai int) error
	newWorker func(w int) func(ai int) error
	// The call in flight, read by the workers: the input the schedule
	// reads (the quantized copies under Mixed), the output, and the
	// prefactors with any denormalization folded in.
	in           *Input
	out          *Output
	prefS, prefP complex128

	matmuls, scalarOps atomic.Int64
}

func newTile(in *Input, restr *restriction, mixed *mixedTile) *Tile {
	t := &Tile{dev: in.Dev, restr: restr, mixed: mixed}
	t.newWorker = func(w int) func(int) error { return t.work[w] }
	return t
}

// NewTile compiles the kernel's tile for in's shape. It panics, before
// any work starts, on a tile that does not fit the device.
func (d DaCe) NewTile(in *Input) *Tile { return newTile(in, d.mustRestrict(in), nil) }

// Compute runs the tile on in and overwrites out with the result: the
// self-energy tensors are zeroed first (the Π≷ blocks accumulate) and
// Stats replaced.
func (t *Tile) Compute(in *Input, out *Output) {
	p := in.Dev.P
	t.in, t.out = in, out
	t.prefS, t.prefP = prefSigma(p), prefPi(p)
	if t.mixed != nil {
		denormS, denormP := t.mixed.quantize(in)
		t.in = t.mixed.q
		t.prefS *= denormS
		t.prefP *= denormP
	}
	out.zero()
	t.matmuls.Store(0)
	t.scalarOps.Store(0)
	// Worker w writes only the output regions of the atoms it claims, so
	// no locking is needed — the associative accumulation the SDFG map
	// exploits.
	atoms := len(t.restr.atoms)
	workers := min(runtime.GOMAXPROCS(0), atoms)
	for len(t.work) < workers {
		s := newTileScratch(p.Nkz, p.Norb, t.restr)
		t.work = append(t.work, func(ai int) error {
			t.atom(s, t.restr.atoms[ai])
			return nil
		})
	}
	t.pool.Run(atoms, workers, t.newWorker)

	src := t.in
	norb := int64(p.Norb)
	out.Stats = Stats{
		MatMuls:   t.matmuls.Load(),
		Flops:     t.matmuls.Load() * 8 * norb * norb * norb,
		ScalarOps: t.scalarOps.Load(),
		BytesMoved: src.GL.Bytes() + src.GG.Bytes() + src.DL.Bytes() + src.DG.Bytes() +
			out.SigL.Bytes() + out.SigG.Bytes() + out.PiL.Bytes() + out.PiG.Bytes(),
	}
	if t.mixed != nil {
		// Halve the byte estimate for the quantized inputs (fp16 vs fp64),
		// reflecting the reduced memory traffic of SSE-16 in Fig. 10.
		out.Stats.BytesMoved -= (in.GL.Bytes() + in.GG.Bytes() + in.DL.Bytes() + in.DG.Bytes()) * 3 / 4
	}
	t.in, t.out = nil, nil
}

// grad is the coupling block ∇iH_ab the schedule multiplies by: the
// device's, or its quantized copy under Mixed.
func (t *Tile) grad(a, b, i int) *linalg.Matrix {
	if t.mixed != nil {
		return t.mixed.grad[gradKey{a, b, i}]
	}
	return t.dev.GradH(a, b, i)
}

// atom computes Σ≷_aa and the Π≷_a* blocks of atom a on scratch s.
func (t *Tile) atom(s *tileScratch, a int) {
	in, out := t.in, t.out
	p := in.Dev.P
	norb := p.Norb
	bl := norb * norb
	nw := p.Nomega
	nkz, ne := p.Nkz, p.NE
	prefS, prefP := t.prefS, t.prefP
	elo, ehi, hlo := t.restr.elo, t.restr.ehi, t.restr.hlo
	halo, owned := t.restr.hhi-hlo, ehi-elo
	eStride := in.GL.Na * bl // distance between one atom's blocks at E and E+1
	var wl, wg [9]complex128
	// Stage ❷'s fused calls: the E−ω and E+ω destination rows (vL, then
	// vG, per direction j) and their weights per source direction i.
	var dnRows, upRows [6][]complex128
	var dnW, upW [3][6]complex128
	var localMuls, localScalar int64
	zero(s.sigL)
	zero(s.sigG)

	for slotAB, b := range in.Dev.Neigh[a] {
		slotBA := in.Dev.NeighbourSlot(b, a)

		// ── Stage ❶: map fission — materialize the ∇H·G transients
		// on the halo window, one fixed-left-operand strided batch per
		// (direction, momentum) row.
		for i := 0; i < 3; i++ {
			gab := t.grad(a, b, i).Data
			gba := t.grad(b, a, i).Data
			for ik := 0; ik < nkz; ik++ {
				ob := in.GL.Index(ik, hlo, b)
				oa := in.GL.Index(ik, hlo, a)
				batch.SBSMMFixedA(s.pLab.eRow(i, ik), gab, in.GL.Data[ob:], norb, halo, eStride)
				batch.SBSMMFixedA(s.pGab.eRow(i, ik), gab, in.GG.Data[ob:], norb, halo, eStride)
				batch.SBSMMFixedA(s.pLba.eRow(i, ik), gba, in.GL.Data[oa:], norb, halo, eStride)
				batch.SBSMMFixedA(s.pGba.eRow(i, ik), gba, in.GG.Data[oa:], norb, halo, eStride)
				interleaveTransposed(s.yLab[ik*halo*bl*4+i:], s.pLab.eRow(i, ik), s.transpose)
				interleaveTransposed(s.yGab[ik*halo*bl*4+i:], s.pGab.eRow(i, ik), s.transpose)
			}
		}
		localMuls += int64(12 * nkz * halo)

		// ── Stage ❷: ω-stencil accumulation with the energy axis
		// contiguous. V_j(kz,E) gathers every (qz, ω, i) contribution
		// as scalar AXPYs; the matrix multiplications by ∇jH_ba are
		// deferred to stage ❸. Along a row the E−ω_m term of every
		// owned energy is one long AXPY and the E+ω_m term a second,
		// and one fused call runs a term for all three directions j of
		// both ≷ rows, reading the two source rows once: each
		// destination element still receives −m before +m.
		zero(s.vL.data)
		zero(s.vG.data)
		for iq := 0; iq < nkz; iq++ {
			for m := 1; m <= nw; m++ {
				dTilde(in.DL, in.DG, iq, m-1, a, b, slotAB, slotBA, &wl, &wg)
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						dnW[i][j], dnW[i][3+j] = wl[i*3+j], wg[i*3+j]
						upW[i][j], upW[i][3+j] = wg[i*3+j], wl[i*3+j]
					}
				}
				// Owned energies whose partner is on the grid: E−ω_m
				// for E in [dn, ehi), E+ω_m for E in [elo, up). v is
				// indexed from elo, the transients from hlo.
				dn, up := max(elo, m), min(ehi, ne-m)
				for ik := 0; ik < nkz; ik++ {
					ikq := ((ik-iq)%nkz + nkz) % nkz
					if dn < ehi {
						s.stencilRows(&dnRows, ik, (dn-elo)*bl, (ehi-elo)*bl)
					}
					if elo < up {
						s.stencilRows(&upRows, ik, 0, (up-elo)*bl)
					}
					for i := 0; i < 3; i++ {
						pl, pg := s.pLab.eRow(i, ikq), s.pGab.eRow(i, ikq)
						if dn < ehi {
							lo, hi := (dn-m-hlo)*bl, (ehi-m-hlo)*bl
							linalg.VecAddMul3x2(&dnRows, pl[lo:hi], pg[lo:hi], &dnW[i])
						}
						if elo < up {
							lo, hi := (elo+m-hlo)*bl, (up+m-hlo)*bl
							linalg.VecAddMul3x2(&upRows, pl[lo:hi], pg[lo:hi], &upW[i])
						}
					}
				}
			}
		}
		localScalar += int64(9*nkz*nkz*nw) * int64(2*owned) * int64(bl) * 8

		// ── Stage ❸: strided-batched SBSMM with fixed right operand
		// ∇jH_ba over the contiguous energy batch, accumulated into
		// this atom's Σ≷ rows (stage ❹ scatters them once per atom).
		for j := 0; j < 3; j++ {
			gjh := t.grad(b, a, j).Data
			for ik := 0; ik < nkz; ik++ {
				zero(s.cBuf)
				batch.SBSMMFixedB(s.cBuf, s.vL.eRow(j, ik), gjh, norb, owned)
				linalg.VecAddMul(s.sigL[ik*owned*bl:(ik+1)*owned*bl], s.cBuf, prefS)
				zero(s.cBuf)
				batch.SBSMMFixedB(s.cBuf, s.vG.eRow(j, ik), gjh, norb, owned)
				linalg.VecAddMul(s.sigG[ik*owned*bl:(ik+1)*owned*bl], s.cBuf, prefS)
			}
		}
		localMuls += int64(6 * nkz * owned)

		// ── Π≷ via the same transients: trace contractions replace
		// the OMEN matmul+trace, and the (a,b) kernel feeds both the
		// neighbour block and the diagonal l-sum of Eq. (3). With the
		// right operands stored transposed, tr(X·Y) is a contiguous
		// dot product; one walk along the energy row loads each X and
		// Y block once and feeds all nine (i,j) sums, each of which
		// still adds its per-energy partials in (kz, E) order.
		for iq := 0; iq < nkz; iq++ {
			for m := 1; m <= nw; m++ {
				var sumL, sumG [12]complex128
				if n := min(ehi, ne-m) - elo; n > 0 {
					x := (elo + m - hlo) * bl
					for ik := 0; ik < nkz; ik++ {
						ikpq := (ik + iq) % nkz
						y := (ik*halo + elo - hlo) * bl * 4
						// tr[(∇iH_ba·G≷_aa(E+ω))·(∇jH_ab·G≶_bb(E))]
						x0, x1, x2 := s.pLba.dirRows(ikpq, x)
						linalg.SumMul3x4(&sumL, x0, x1, x2, s.yGab[y:], bl, n)
						x0, x1, x2 = s.pGba.dirRows(ikpq, x)
						linalg.SumMul3x4(&sumG, x0, x1, x2, s.yLab[y:], bl, n)
					}
				}
				piLd := out.PiL.Block(iq, m-1, a, 0)
				piGd := out.PiG.Block(iq, m-1, a, 0)
				piLn := out.PiL.Block(iq, m-1, a, 1+slotAB)
				piGn := out.PiG.Block(iq, m-1, a, 1+slotAB)
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						piLd[i*3+j] += prefP * sumL[i*4+j]
						piGd[i*3+j] += prefP * sumG[i*4+j]
						piLn[i*3+j] += prefP * sumL[i*4+j]
						piGn[i*3+j] += prefP * sumG[i*4+j]
					}
				}
			}
		}
		localScalar += int64(9*nkz*nkz*nw) * int64(owned) * int64(bl) * 16
	}

	// ── Stage ❹: scatter the atom's Σ≷ rows into the output tensor.
	for ik := 0; ik < nkz; ik++ {
		for e := 0; e < owned; e++ {
			o := (ik*owned + e) * bl
			copy(out.SigL.Block(ik, elo+e, a), s.sigL[o:o+bl])
			copy(out.SigG.Block(ik, elo+e, a), s.sigG[o:o+bl])
		}
	}
	t.matmuls.Add(localMuls)
	t.scalarOps.Add(localScalar)
}

// interleaveTransposed writes the transpose of every n×n block of src into
// dst's [block][n²][4] layout; dst starts at the lane to fill, and perm is
// the tile scratch's transpose table.
func interleaveTransposed(dst, src []complex128, perm []int) {
	for o := 0; o < len(src); o += len(perm) {
		d := dst[4*o:]
		for k, v := range src[o : o+len(perm)] {
			d[perm[k]] = v
		}
	}
}

func zero(v []complex128) {
	for i := range v {
		v[i] = 0
	}
}
