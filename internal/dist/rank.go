package dist

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/sse"
	"repro/internal/tensor"
)

// rankState is one rank's persistent shard state across the whole
// self-consistent loop, shared by both engines.
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
	rs.ps.Trace = opts.Tracer
	rs.ps.TraceRank = r
	rs.in = &sse.Input{Dev: dev, GL: rs.ps.GL, GG: rs.ps.GG, DL: rs.ps.DL, DG: rs.ps.DG}
	return rs
}

// mixSigmaAt and mixPiAt blend the freshly exchanged Σ≷ (Π≷) plane of one
// owned point into the solver state — tensor.MixSlice is the same blend
// the sequential solver applies tensor-wide. The bulk-synchronous loop
// sweeps them over the shard; the task graph runs one node per point.
func (rs *rankState) mixSigmaAt(out *sse.Output, ik, ie int, mixing float64) {
	tensor.MixSlice(rs.ps.SigL.Plane(ik, ie), out.SigL.Plane(ik, ie), mixing)
	tensor.MixSlice(rs.ps.SigG.Plane(ik, ie), out.SigG.Plane(ik, ie), mixing)
}

func (rs *rankState) mixPiAt(out *sse.Output, iq, m int, mixing float64) {
	tensor.MixSlice(rs.ps.PiL.Plane(iq, m-1), out.PiL.Plane(iq, m-1), mixing)
	tensor.MixSlice(rs.ps.PiG.Plane(iq, m-1), out.PiG.Plane(iq, m-1), mixing)
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
	_, misses := rs.ps.BC.Stats()
	loads := rs.c.Gather(0, []complex128{
		complex(float64(len(rs.sh.Pairs)), 0),
		complex(float64(len(rs.sh.Points)), 0),
		complex(float64(misses), 0),
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

// runRank is one rank's life under SchedulePhases: the bulk-synchronous
// GF → barrier → SSE → reduce loop. Only rank 0 writes into res (the
// caller reads it after World.Run returns, which orders the accesses).
func runRank(c *comm.Comm, dev *device.Device, opts Options, res *Result) error {
	rs := newRankState(c, dev, opts)
	r := c.Rank()
	trc := opts.Tracer
	points := rs.sh.NewResults()
	redShare := reduceShare(c, vecLen(dev.P)) + agreeShare(c, opts)
	var part, global *partialObs
	var stopErr error
	var prev float64
	converged := false
	for it := 0; it < opts.MaxIter; it++ {
		if opts.Progress != nil && agreeStop(c, stopErr) {
			break
		}
		iterStart := time.Now()
		tIter := trc.Begin()
		// ── GF phase: RGF solves for the owned shard only, serially (the
		// ranks are the parallelism). No traffic.
		part = &partialObs{}
		err := rs.ps.Sweep(rs.sh, 1, points)
		if err == nil {
			rs.ps.Fold(rs.sh, points, &part.Observables)
		}
		// A rank cannot abandon the collectives unilaterally — the others
		// would block in the next exchange forever. Agree on failure first:
		// one scalar Allreduce, nonzero iff any rank errored. The failing
		// rank(s) then report the real error; healthy ranks exit cleanly.
		var flag complex128
		if err != nil {
			flag = 1
		}
		if fail := c.Allreduce([]complex128{flag}); real(fail[0]) != 0 {
			if err != nil {
				return fmt.Errorf("dist: iteration %d: %w", it, err)
			}
			return nil
		}

		// ── SSE phase: four Alltoallv exchanges + local tile kernel, then
		// linear mixing of the owned Σ≷/Π≷ planes. The plan counts this
		// rank's off-rank traffic at pack time — the same barrier-free
		// accounting the task graph uses, so the schedules' iteration
		// timings stay comparable.
		pl := decomp.NewDaCePlan(c.Rank(), rs.tiles, rs.src, rs.atomSets, rs.in).
			WithPrecision(opts.Precision)
		if opts.ErrorProbe {
			pl.WithErrorProbe()
		}
		tEx := trc.Begin()
		pl.UnpackG(c.Alltoallv(pl.PackG()))
		pl.UnpackD(c.Alltoallv(pl.PackD()))
		trc.End(r, 0, "exchange", "exchange/GD", it, -1, tEx)
		tTile := trc.Begin()
		pl.ComputeTile()
		trc.End(r, 0, "sse", "sse/tile", it, -1, tTile)
		tEx = trc.Begin()
		pl.UnpackSigma(c.Alltoallv(pl.PackSigma()))
		pl.UnpackPi(c.Alltoallv(pl.PackPi()))
		trc.End(r, 0, "exchange", "exchange/SigmaPi", it, -1, tEx)
		out := pl.Output()
		part.sse = out.Stats
		for _, pr := range rs.sh.Pairs {
			rs.mixSigmaAt(out, pr[0], pr[1], opts.Mixing)
		}
		for _, pt := range rs.sh.Points {
			rs.mixPiAt(out, pt[0], pt[1], opts.Mixing)
		}
		part.sseB = float64(pl.OffRankBytes())
		part.redB = redShare
		part.fbk = float64(pl.FallbackBlocks())
		// Precision telemetry: the global deviation is the worst rank's,
		// so it rides a max-reduction, not the summed observable vector.
		var qerr float64
		if opts.ErrorProbe {
			qerr = reduceProbe(c, pl)
		}

		// ── Convergence: Allreduce the packed observables so every rank
		// sees the identical global contact current.
		tRed := trc.Begin()
		global = unpackObs(c.Allreduce(part.pack(dev.P)), dev.P)
		trc.End(r, 0, "reduce", "reduce/obs", it, -1, tRed)
		trc.End(r, 0, "iter", "iter", it, -1, tIter)

		cur := global.CurrentL
		rel, conv, err := negf.ConvergenceStep(it, cur, prev, opts.Tol)
		if err != nil {
			// Decided from the reduced current: every rank leaves here.
			return fmt.Errorf("dist: %w", err)
		}
		if r == 0 {
			st := global.row(it, rel, qerr)
			st.WallNs = time.Since(iterStart).Nanoseconds()
			res.IterTrace = append(res.IterTrace, st)
			if opts.Progress != nil && stopErr == nil {
				stopErr = opts.Progress(st)
			}
		}
		if conv {
			converged = true
			break
		}
		prev = cur
	}

	if r == 0 {
		res.stopErr = stopErr
	}
	rs.epilogue(opts, res, converged, part, global)
	return nil
}

// agreeStop is the cancellation agreement of the Progress hook: every
// rank contributes whether it carries a pending stop request (only
// rank 0 ever does — the hook runs there) and the reduced flag gives
// all ranks the identical break decision, so nobody abandons a peer in
// a collective. It costs one scalar Allreduce per iteration and runs
// only when a hook is installed.
func agreeStop(c *comm.Comm, stopErr error) bool {
	var flag complex128
	if stopErr != nil {
		flag = 1
	}
	return real(c.Allreduce([]complex128{flag})[0]) != 0
}

// agreeShare is this rank's contribution to the iteration's
// cancellation-agreement Allreduce — zero when no Progress hook is
// installed (the collective does not run), so IterStats.ReduceBytes
// keeps summing to what the comm layer measures either way.
func agreeShare(c *comm.Comm, opts Options) float64 {
	if opts.Progress == nil {
		return 0
	}
	return reduceShare(c, 1)
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
