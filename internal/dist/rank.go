package dist

import (
	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/sse"
)

// rankState is one rank's persistent shard state across the whole
// self-consistent loop.
type rankState struct {
	c        *comm.Comm
	dev      *device.Device
	ps       *negf.PointSolver
	sh       *negf.Shard // owned (kz, E) pairs and (qz, ω) points
	src      *decomp.OMENLayout
	tiles    *decomp.DaCeLayout
	atomSets [][]int
	in       *sse.Input
}

func newRankState(c *comm.Comm, dev *device.Device, opts Options) *rankState {
	r := c.Rank()
	rs := &rankState{
		c:     c,
		dev:   dev,
		ps:    negf.NewPointSolver(dev, opts.CacheMode),
		src:   decomp.NewOMENLayout(dev.P, opts.Ranks),
		tiles: decomp.NewDaCeLayout(dev, opts.Ta, opts.TE),
	}
	rs.atomSets = rs.tiles.AtomSets()
	rs.sh = negf.NewShard(dev, rs.src.OwnedPairs(r), rs.src.OwnedPhonon(r))
	rs.ps.BC.Store = opts.Store
	rs.ps.Trace = opts.Tracer
	rs.ps.TraceRank = r
	rs.in = &sse.Input{Dev: dev, GL: rs.ps.GL, GG: rs.ps.GG, DL: rs.ps.DL, DG: rs.ps.DG}
	return rs
}

// epilogue reduces the last valid iteration's phonon spectra for the
// temperature map (local's weight in the real parts, its occupation in
// the imaginary) and gathers the per-rank load report. Only rank 0
// consumes either, so both collectives are rooted there — the measured
// volume stays what the algorithm strictly needs.
func (rs *rankState) epilogue(opts Options, res *Result, converged bool, local, global *partialObs) {
	p := rs.dev.P
	buf := make([]complex128, 0, p.Na*p.Nomega)
	for a, dos := range local.PhononDOS {
		for m := range dos {
			buf = append(buf, complex(dos[m], local.PhononOcc[a][m]))
		}
	}
	buf = rs.c.Reduce(0, buf)
	loads := rs.c.Gather(0, []complex128{
		complex(float64(len(rs.sh.Pairs)), 0),
		complex(float64(len(rs.sh.Points)), 0),
		complex(float64(rs.ps.BC.Decimations()), 0),
	})

	if rs.c.Rank() != 0 {
		return
	}
	res.Converged = converged
	res.Obs = global.Observables
	res.Obs.PhononDOS, res.Obs.PhononOcc = local.PhononDOS, local.PhononOcc
	for i, v := range buf {
		a, m := i/p.Nomega, i%p.Nomega
		res.Obs.PhononDOS[a][m], res.Obs.PhononOcc[a][m] = real(v), imag(v)
	}
	res.Obs.AtomTemperature = negf.FitTemperatures(p, res.Obs.PhononDOS, res.Obs.PhononOcc)
	res.Load = make([]RankLoad, opts.Ranks)
	for rank, l := range loads {
		res.Load[rank] = RankLoad{
			Rank:       rank,
			Pairs:      int(real(l[0])),
			Points:     int(real(l[1])),
			BCComputes: int(real(l[2])),
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

// reduceProbe turns per-rank tile probe numbers into the global relative
// Σ≷/Π≷ deviation: absolute ∞-norm deviations and reference norms are
// max-reduced independently (real and imaginary halves of one payload
// word per tensor class), and only then divided — a tile's Π≷ partial
// can cancel to near zero locally, so local ratios would overstate the
// error.
func reduceProbe(c *comm.Comm, pl *decomp.DaCePlan) float64 {
	dev, ref := pl.ProbeDeviation()
	red := c.AllreduceMax([]complex128{
		complex(dev[0], ref[0]),
		complex(dev[1], ref[1]),
	})
	var worst float64
	for _, v := range red {
		if imag(v) > 0 && real(v)/imag(v) > worst {
			worst = real(v) / imag(v)
		}
	}
	return worst
}
