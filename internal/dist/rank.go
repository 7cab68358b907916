package dist

import (
	"fmt"
	"math"
	"time"

	"repro/internal/blocktri"
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
	src      *decomp.OMENLayout
	tiles    *decomp.DaCeLayout
	atomSets [][]int
	pairs    [][2]int // owned electron (kz, E) points
	points   [][2]int // owned phonon (qz, ω) points
	hams     map[int]*blocktri.Matrix
	dyns     map[int]*blocktri.Matrix
	// Per-atom phonon spectral weight and occupation partials of the last
	// GF phase, reduced once after the loop for the temperature map.
	dos, occ [][]float64
	in       *sse.Input
}

func newRankState(c *comm.Comm, dev *device.Device, opts Options) *rankState {
	p := dev.P
	r := c.Rank()
	rs := &rankState{
		c:     c,
		dev:   dev,
		ps:    negf.NewPointSolver(dev, opts.CacheMode),
		src:   decomp.NewOMENLayout(p, opts.Ranks),
		tiles: decomp.NewDaCeLayout(dev, opts.Ta, opts.TE),
	}
	rs.atomSets = rs.tiles.AtomSets()
	rs.pairs = rs.src.OwnedPairs(r)
	rs.points = rs.src.OwnedPhonon(r)
	rs.ps.Trace = opts.Tracer
	rs.ps.TraceRank = r

	// H(kz) and Φ(qz) are self-energy-independent: assemble each owned
	// momentum once for the whole run.
	rs.hams = make(map[int]*blocktri.Matrix)
	for _, pr := range rs.pairs {
		if _, ok := rs.hams[pr[0]]; !ok {
			rs.hams[pr[0]] = dev.Hamiltonian(pr[0])
		}
	}
	rs.dyns = make(map[int]*blocktri.Matrix)
	for _, pt := range rs.points {
		if _, ok := rs.dyns[pt[0]]; !ok {
			rs.dyns[pt[0]] = dev.Dynamical(pt[0])
		}
	}

	rs.dos = make([][]float64, p.Na)
	rs.occ = make([][]float64, p.Na)
	for a := range rs.dos {
		rs.dos[a] = make([]float64, p.Nomega)
		rs.occ[a] = make([]float64, p.Nomega)
	}
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

// epilogue reduces the spectral weight/occupation for the temperature map
// (dos in the real parts, occ in the imaginary) and gathers the per-rank
// load report. Only rank 0 consumes either, so both collectives are
// rooted there — the measured volume stays what the algorithm strictly
// needs.
func (rs *rankState) epilogue(opts Options, res *Result, converged bool, global *partialObs) {
	p := rs.dev.P
	buf := make([]complex128, p.Na*p.Nomega)
	for a := 0; a < p.Na; a++ {
		for m := 0; m < p.Nomega; m++ {
			buf[a*p.Nomega+m] = complex(rs.dos[a][m], rs.occ[a][m])
		}
	}
	buf = rs.c.Reduce(0, buf)
	_, misses := rs.ps.BC.Stats()
	loads := rs.c.Gather(0, []complex128{
		complex(float64(len(rs.pairs)), 0),
		complex(float64(len(rs.points)), 0),
		complex(float64(misses), 0),
	})

	if rs.c.Rank() != 0 {
		return
	}
	for a := 0; a < p.Na; a++ {
		for m := 0; m < p.Nomega; m++ {
			rs.dos[a][m] = real(buf[a*p.Nomega+m])
			rs.occ[a][m] = imag(buf[a*p.Nomega+m])
		}
	}
	res.Converged = converged
	res.Obs = global.observables(p)
	res.Obs.AtomTemperature = negf.FitTemperatures(p, rs.dos, rs.occ)
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
	var global *partialObs
	var stopErr error
	var prev float64
	converged := false
	for it := 0; it < opts.MaxIter; it++ {
		if opts.Progress != nil && agreeStop(c, stopErr) {
			break
		}
		iterStart := time.Now()
		tIter := trc.Begin()
		// ── GF phase: RGF solves for the owned shard only. No traffic.
		part, err := solveShard(rs.ps, rs.hams, rs.dyns, rs.pairs, rs.points, rs.dos, rs.occ)
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
		for _, pr := range rs.pairs {
			rs.mixSigmaAt(out, pr[0], pr[1], opts.Mixing)
		}
		for _, pt := range rs.points {
			rs.mixPiAt(out, pt[0], pt[1], opts.Mixing)
		}
		part.sseB = float64(pl.OffRankBytes())
		part.redB = reduceShare(c, vecLen(dev.P)) + agreeShare(c, opts)
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
		global = unpackObs(c.Allreduce(part.pack()), dev.P)
		trc.End(r, 0, "reduce", "reduce/obs", it, -1, tRed)
		trc.End(r, 0, "iter", "iter", it, -1, tIter)

		cur := global.currentL
		rel, conv, err := negf.ConvergenceStep(it, cur, prev, opts.Tol)
		if err != nil {
			// Decided from the reduced current: every rank leaves here.
			return fmt.Errorf("dist: %w", err)
		}
		if r == 0 {
			st := IterStats{
				Iter: it, Current: cur, Residual: rel,
				ElEnergyLoss: global.elLoss, PhEnergyGain: global.phGain,
				SSE:      global.sse,
				SSEBytes: int64(global.sseB), ReduceBytes: int64(global.redB),
				SigmaErr:       qerr,
				FallbackBlocks: int64(global.fbk),
				WallNs:         time.Since(iterStart).Nanoseconds(),
			}
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
	rs.epilogue(opts, res, converged, global)
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

// solveShard runs the GF phase for this rank's owned points: electron and
// phonon RGF solves plus the collision-integral partials, accumulated in
// global point order so the cross-rank reduction reproduces the sequential
// summation up to floating-point reassociation.
func solveShard(ps *negf.PointSolver, hams, dyns map[int]*blocktri.Matrix,
	pairs, points [][2]int, dos, occ [][]float64) (*partialObs, error) {
	p := ps.Dev.P
	part := newPartialObs(p)

	for _, pr := range pairs {
		ik, ie := pr[0], pr[1]
		r, err := ps.SolveElectronPoint(hams[ik], ik, ie)
		if err != nil {
			return nil, fmt.Errorf("point (kz=%d, E=%d): %w", ik, ie, err)
		}
		part.addElectron(p, ie, r)
	}

	for a := range dos {
		for m := range dos[a] {
			dos[a][m], occ[a][m] = 0, 0
		}
	}
	for _, pt := range points {
		iq, m := pt[0], pt[1]
		r, err := ps.SolvePhononPoint(dyns[iq], iq, m)
		if err != nil {
			return nil, fmt.Errorf("point (qz=%d, ω=%d): %w", iq, m, err)
		}
		part.addPhonon(p, m, r, dos, occ)
	}

	part.elLoss = ps.ElectronCollisionSum(pairs)
	part.phGain = ps.PhononCollisionSum(points)
	return part, nil
}

// addElectron folds one electron point's observables into the partial,
// with the same weights and order as the sequential reduction.
func (po *partialObs) addElectron(p device.Params, ie int, r *negf.ElectronPointResult) {
	we := p.DE / (2 * math.Pi) / float64(p.Nkz)
	po.currentL += we * r.CurrentL
	po.currentR += we * r.CurrentR
	po.energyL += we * r.EnergyL
	for i := range r.InterfaceCurrent {
		po.ifaceCur[i] += we * r.InterfaceCurrent[i]
		po.ifaceEn[i] += we * r.InterfaceEnergy[i]
	}
	for i := range r.DissipatedPerSlab {
		po.diss[i] += we * r.DissipatedPerSlab[i]
	}
	po.spectral[ie] += r.CurrentL
}

// addPhonon folds one phonon point's observables into the partial and the
// dos/occ accumulators.
func (po *partialObs) addPhonon(p device.Params, m int, r *negf.PhononPointResult, dos, occ [][]float64) {
	wp := p.DE / (2 * math.Pi) / float64(p.Nqz())
	omega := p.Omega(m)
	po.phononEnergyL += wp * omega * r.EnergyContactL
	for i := range r.InterfaceEnergy {
		po.phIfaceEn[i] += wp * omega * r.InterfaceEnergy[i]
	}
	for a := 0; a < p.Na; a++ {
		dos[a][m-1] += r.DOS[a] / float64(p.Nqz())
		occ[a][m-1] += r.Occ[a] / float64(p.Nqz())
	}
}
