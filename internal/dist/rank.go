package dist

import (
	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/sse"
)

// rankState is one rank's persistent shard state across the whole
// self-consistent loop: the point solver of its shard, and the one tile
// plan every slot of the run's ring uses (tile output, compiled tile,
// exchange state and counters).
type rankState struct {
	c    *comm.Comm
	dev  *device.Device
	ps   *negf.PointSolver
	sh   *negf.Shard // owned (kz, E) pairs and (qz, ω) points
	src  *decomp.OMENLayout
	plan *decomp.DaCePlan
}

func newRankState(c *comm.Comm, dev *device.Device, opts Options) *rankState {
	r := c.Rank()
	src := decomp.NewOMENLayout(dev.P, opts.Ranks)
	sh := negf.NewShard(dev, src.OwnedPairs(r), src.OwnedPhonon(r))
	ps := opts.Loop.NewPointSolver(dev, sh, r, opts.Workers)
	tiles := decomp.NewDaCeLayout(dev, opts.Ta, opts.TE)
	in := &sse.Input{Dev: dev, GL: ps.GL, GG: ps.GG, DL: ps.DL, DG: ps.DG}
	pl := decomp.NewDaCePlan(r, tiles, src, tiles.AtomSets(), in).WithPrecision(opts.Precision)
	if opts.ErrorProbe {
		pl.WithErrorProbe()
	}
	if opts.Kernel != nil {
		pl.WithKernel(opts.Kernel)
	}
	return &rankState{c: c, dev: dev, ps: ps, sh: sh, src: src, plan: pl}
}

// epilogue reduces the last valid iteration's spectra — the phonon
// spectra for the temperature map (local's weight in the real parts, its
// occupation in the imaginary) and the electron LDOS (real parts) — and
// the per-rank decimation counts in one Reduce rooted at rank 0, the only
// rank that consumes them, so the measured volume stays what the
// algorithm strictly needs. The counts are one word per rank: rank r
// writes its decimations into word r and leaves the others zero, so the
// sum holds every rank's count exactly. Rank 0 derives every rank's pairs
// and points from the layout it holds. final is the one-rank state to
// hand over, or nil.
func (rs *rankState) epilogue(opts Options, res *Result, converged bool, local, global *partialObs, final *negf.SigmaState) {
	p := rs.dev.P
	nph, nldos := p.Na*p.Nomega, p.Bnum*p.NE
	buf := make([]complex128, 0, nph+nldos+opts.Ranks)
	for a, dos := range local.PhononDOS {
		for m := range dos {
			buf = append(buf, complex(dos[m], local.PhononOcc[a][m]))
		}
	}
	for _, ldos := range local.LDOS {
		for _, v := range ldos {
			buf = append(buf, complex(v, 0))
		}
	}
	buf = buf[:nph+nldos+opts.Ranks]
	buf[nph+nldos+rs.c.Rank()] = complex(float64(rs.ps.BC.Decimations()), 0)
	buf = rs.c.Reduce(0, buf)

	if rs.c.Rank() != 0 {
		return
	}
	res.Converged = converged
	res.Final = final
	res.Obs = global.Observables
	res.Obs.PhononDOS, res.Obs.PhononOcc, res.Obs.LDOS = local.PhononDOS, local.PhononOcc, local.LDOS
	for i, v := range buf[:nph] {
		a, m := i/p.Nomega, i%p.Nomega
		res.Obs.PhononDOS[a][m], res.Obs.PhononOcc[a][m] = real(v), imag(v)
	}
	for i, v := range buf[nph : nph+nldos] {
		res.Obs.LDOS[i/p.NE][i%p.NE] = real(v)
	}
	res.Obs.AtomTemperature = negf.FitTemperatures(p, res.Obs.PhononDOS, res.Obs.PhononOcc)
	res.Load = make([]RankLoad, opts.Ranks)
	for rank := range res.Load {
		pairs, points := rs.src.Owned(rank)
		res.Load[rank] = RankLoad{
			Rank: rank, Pairs: pairs, Points: points,
			BCComputes: int(real(buf[nph+nldos+rank])),
		}
	}
}

// reduceShare is the off-rank traffic this rank contributes to one
// Allreduce of n complex values: non-root ranks send their contribution
// to rank 0, rank 0 broadcasts the sum to everyone else. Summed over
// ranks this equals what the comm layer measures.
func reduceShare(c *comm.Comm, n int) float64 {
	if c.Size() == 1 {
		return 0
	}
	if c.Rank() == 0 {
		return float64((c.Size() - 1) * n * 16)
	}
	return float64(n * 16)
}
