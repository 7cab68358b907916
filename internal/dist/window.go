package dist

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bc"
	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/obs"
	"repro/internal/sdfg"
	"repro/internal/tensor"
)

// stopRideFlag is the cancellation contribution rank 0 adds to the
// ride-along control word of the observable reduction. Failure flags are
// whole (each failing rank adds 1, the sum stays integral), so a
// fractional part marks a pure stop request and the two agreements share
// one reduced word without a second collective. 0.5 is exact in binary
// floating point, so the encoding survives the summation bit-for-bit.
const stopRideFlag = 0.5

// flagFailure reports whether the reduced control word carries at least
// one rank's solve failure (failure outranks a stop request).
func flagFailure(f float64) bool { return f >= 1 }

// pipeRun is one rank's control state across the whole run:
// the speculation fence plus the convergence bookkeeping every rank
// tracks symmetrically. All plain fields are written only by conv nodes
// (which form a dependency chain) or between window drains, so the
// executor's scheduling lock and the drain barrier order every access;
// stopAt alone is read by speculative nodes racing the deciding conv
// node and is therefore atomic.
type pipeRun struct {
	// stopAt is the first absolute iteration index whose work must be
	// discarded. Speculative nodes consult it to cut work short; comm
	// nodes consult it after the conv fence of the previous iteration,
	// where its value is identical on every rank (it derives only from
	// globally reduced data), so all ranks skip or post each collective
	// in agreement.
	stopAt atomic.Int64

	halt      bool // set with stopAt: no further window is built
	converged bool
	failed    bool
	err       error // this rank's own solve failure or the shared non-finite verdict, if any

	stopErr  error // rank 0: pending Progress cancellation
	wantStop bool  // rank 0: ride the stop request on the next reduction

	prev float64 // previous valid iteration's global current
	// local and global are the last valid iteration's partial before and
	// after the reduction.
	local, global *partialObs

	lastConv time.Duration
	decided  time.Duration // window-relative instant the halt decision landed
}

// fence moves the speculation fence to iteration at and stops the run
// after the current window drains.
func (pr *pipeRun) fence(at int, now time.Duration) {
	pr.stopAt.Store(int64(at))
	pr.halt = true
	pr.decided = now
}

// iterRun is the mutable state one iteration of the graph threads
// through its nodes. Fields are written by exactly one node each (or
// guarded by mu), and the executor's scheduling lock orders every write
// before the nodes that consume it.
type iterRun struct {
	mu  sync.Mutex
	err error // first failed point solve of this rank

	part *partialObs
	plan *decomp.DaCePlan

	reqG, reqD, reqSig, reqPi *comm.MatRequest
	reqObs                    *comm.VecRequest
	global                    *partialObs
	qerr                      float64 // globally reduced probe deviation

	// points are the iteration's private result slots; compNs/commNs the
	// measured compute/communication split the conv node folds into
	// IterStats.
	points         *negf.PointResults
	compNs, commNs atomic.Int64
}

func (st *iterRun) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
}

func (st *iterRun) failed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err != nil
}

// try runs the GF-phase step of point i unless a point of this rank's
// shard has already failed (the iteration is then discarded at its conv),
// and records the step's own failure.
func (st *iterRun) try(step func(i int) error, i int) {
	if st.failed() {
		return
	}
	if err := step(i); err != nil {
		st.fail(err)
	}
}

// runRankWindow is one rank's life, under every schedule: opts arrives
// resolved (Validate), and the schedule is by now only the window depth
// opts.PipelineDepth and the pool size opts.Workers. The graph spans a
// window of depth iterations, so iteration n+1's boundary and point solves
// start as soon as iteration n's mixed Σ≷/Π≷ is available for their points
// — the cross-iteration form of the §7.1.3 overlap; at depth 1 the window
// drain is the iteration barrier and only the within-iteration overlap
// remains, and on one worker the nodes run strictly one after another —
// the bulk-synchronous phases. Failure, convergence and cancellation
// agreement ride the per-iteration observable IAllreduce (no dedicated
// barrier or agreement collective), and the per-iteration conv fence
// discards speculated work when any of them lands. Only rank 0 writes
// into res (the caller reads it after World.Run returns, which orders the
// accesses).
func runRankWindow(c *comm.Comm, dev *device.Device, opts Options, res *Result) error {
	rs := newRankState(c, dev, opts)
	r := c.Rank()
	ex := sdfg.NewExecutor(opts.Workers)

	// Mirror executor task spans into the run trace; the node label picks
	// the category the phase view groups by. Each worker of a pool gets
	// its own 100+ track; a one-worker pool has no worker lanes, so its
	// nodes are the rank's serial lane, track 0. The executor times each
	// node on its own per-Run clock and calls the observer as the node
	// ends, so the span is placed on the tracer's clock ending now: a
	// task then encloses the bc/rgf spans recorded inside it.
	trc := opts.Tracer
	if trc != nil {
		lane := 100
		if opts.Workers == 1 {
			lane = 0
		}
		ex.Observer = func(label string, kind sdfg.Kind, worker int, start, end time.Duration) {
			cat := "task"
			switch {
			case label == "sse/tile":
				cat = "sse"
			case label == "post/obs" || label == "wait/obs":
				cat = "reduce"
			case kind == sdfg.Comm:
				cat = "exchange"
			}
			dur := (end - start).Nanoseconds()
			trc.Add(obs.Span{
				Name: label, Cat: cat, Rank: r, Track: lane + worker, I: -1, J: -1,
				Start: trc.Begin() - dur, Dur: dur,
			})
		}
	}

	pr := &pipeRun{}
	pr.stopAt.Store(math.MaxInt64)

	for base := 0; base < opts.MaxIter && !pr.halt; {
		w := min(opts.PipelineDepth, opts.MaxIter-base)
		winStart := time.Now()
		tWin := trc.Begin()
		pr.lastConv = 0
		win := make([]*iterRun, w)
		for k := range win {
			win[k] = &iterRun{points: rs.sh.NewResults()}
		}
		g := rs.buildWindowGraph(opts, pr, win, base, winStart, res)
		if _, err := ex.Run(g); err != nil {
			return fmt.Errorf("dist: window at iteration %d: %w", base, err)
		}
		drain := time.Since(winStart)
		trc.End(r, 0, "iter", "window", base, -1, tWin)
		if trc != nil && pr.halt {
			// The tail between the halt decision and the window drain is
			// pure speculation overhead: record it as a stall span, plus
			// one marker per discarded iteration.
			trc.Add(obs.Span{
				Name: "pipeline/fence", Cat: "stall", Rank: r, Track: 99, I: base, J: -1,
				Start: tWin + pr.decided.Nanoseconds(), Dur: (drain - pr.decided).Nanoseconds(),
			})
			for k := range win {
				if a := base + k; int64(a) >= pr.stopAt.Load() {
					trc.Add(obs.Span{
						Name: "pipeline/discard", Cat: "stall", Rank: r, Track: 99, I: a, J: -1,
						Start: tWin + pr.decided.Nanoseconds(), Dur: (drain - pr.decided).Nanoseconds(),
					})
				}
			}
		}
		if pr.failed {
			if pr.err != nil {
				return fmt.Errorf("dist: iteration %d: %w", pr.stopAt.Load(), pr.err)
			}
			return nil
		}
		base += w
	}

	if r == 0 {
		res.stopErr = pr.stopErr
	}
	rs.epilogue(opts, res, pr.converged, pr.local, pr.global)
	return nil
}

// buildWindowGraph lays out a window of w consecutive self-consistent
// iterations as one dataflow graph — the only task-graph builder of the
// package. Node kinds follow §4's SDFG: per-point boundary solves and RGF
// solves, collision partials, the four SSE tile exchanges, the tile
// kernel, mixing, and the observable reduction. Three things carry the
// window:
//
//   - mixing is split into per-point nodes, so iteration k+1's solve of a
//     point depends only on the mixed Σ (or Π) of that same point — the
//     finest-grained cross-iteration release the data allows;
//   - every comm post of iteration k+1 additionally depends on the conv
//     fence of iteration k, so the (symmetric) skip decision is settled
//     before any rank commits to a collective — all ranks post or all
//     skip, keeping the nonblocking exchanges matched;
//   - a conv node per iteration consumes the ride-along reduction,
//     records IterStats, runs the Progress hook on rank 0 and moves the
//     speculation fence on convergence, failure, or a stop request.
//
// Collective discipline: a failing node records its error and the graph
// still drains, so every rank posts every collective of an iteration it
// entered — failure is agreed in the reduction, never by abandoning a
// peer. The wait nodes of each exchange stage additionally depend on both
// of the stage's posts: a wait may only block a worker once this rank has
// posted everything its peers need to reach the same stage, which makes
// the schedule deadlock-free for any pool size, including Workers=1.
//
// Decisions derive only from globally reduced values (the current and
// the control word), so every rank moves the fence identically with no
// agreement collective of its own; a rank-0 cancellation is folded into
// the next reduction's control word instead of being acted on locally.
func (rs *rankState) buildWindowGraph(opts Options, pr *pipeRun, win []*iterRun,
	base int, winStart time.Time, res *Result) *sdfg.Graph {

	p := rs.dev.P
	c := rs.c
	r := c.Rank()
	g := sdfg.New()
	redShare := reduceShare(c, vecLen(p))

	var prevConv sdfg.NodeID = -1
	var prevBCEl, prevBCPh, prevMixSig, prevMixPi []sdfg.NodeID

	for k := range win {
		k := k
		a := base + k
		st := win[k]
		st.part = &partialObs{}
		st.part.Reset(p)
		st.plan = decomp.NewDaCePlan(r, rs.tiles, rs.src, rs.atomSets, rs.in).
			WithPrecision(opts.Precision)
		if opts.ErrorProbe {
			st.plan.WithErrorProbe()
		}

		skip := func() bool { return pr.stopAt.Load() <= int64(a) }
		// add wraps every node with the per-iteration compute/comm timers
		// the conv node folds into IterStats — conv depends (transitively)
		// on every node of its iteration, so the counters are complete
		// when it reads them. No node returns an error: a failure is
		// recorded and agreed in the reduction.
		add := func(label string, kind sdfg.Kind, body func(), deps ...sdfg.NodeID) sdfg.NodeID {
			ns := &st.compNs
			if kind == sdfg.Comm {
				ns = &st.commNs
			}
			return g.Add(sdfg.Spec{Label: label, Kind: kind, Run: func() error {
				t0 := time.Now()
				body()
				ns.Add(time.Since(t0).Nanoseconds())
				return nil
			}}, deps...)
		}
		// node adds a task that is a no-op once the fence has moved to or
		// before this iteration — everything but the waits (which follow
		// their post) and the conv fence itself.
		node := func(label string, kind sdfg.Kind, body func(), deps ...sdfg.NodeID) sdfg.NodeID {
			return add(label, kind, func() {
				if !skip() {
					body()
				}
			}, deps...)
		}

		// ── GF solves: per point a BC node and a solve node, each a no-op
		// once a point of this rank's shard has failed. A point's BC chain
		// serializes on the previous iteration's BC node for the same
		// point: the boundary depends only on (momentum, energy) — the
		// iteration-lag bc.Cache tolerates trivially — so every iteration
		// past the first is a guaranteed cache hit instead of a duplicated
		// decimation. The solve additionally waits for the previous
		// iteration's mix of that point's own Σ (or Π) plane.
		pairs, points := rs.sh.Pairs, rs.sh.Points
		gfNodes := func(species string, pts [][2]int, prevBC, prevMix []sdfg.NodeID,
			prepare, solve func(i int) error) (bcs, done []sdfg.NodeID) {
			bcs = make([]sdfg.NodeID, len(pts))
			done = make([]sdfg.NodeID, len(pts))
			for i, pt := range pts {
				var deps []sdfg.NodeID
				if opts.CacheMode == bc.CacheBC {
					var bdeps []sdfg.NodeID
					if k > 0 {
						bdeps = append(bdeps, prevBC[i])
					}
					bcs[i] = node(fmt.Sprintf("bc/%s/%d,%d", species, pt[0], pt[1]), sdfg.Compute,
						func() { st.try(prepare, i) }, bdeps...)
					deps = append(deps, bcs[i])
				}
				if k > 0 {
					deps = append(deps, prevMix[i])
				}
				done[i] = node(fmt.Sprintf("rgf/%s/%d,%d", species, pt[0], pt[1]), sdfg.Compute,
					func() { st.try(solve, i) }, deps...)
			}
			return bcs, done
		}
		bcEl, elDone := gfNodes("el", pairs, prevBCEl, prevMixSig,
			func(i int) error { return rs.ps.PrepareElectronBC(rs.sh, i) },
			func(i int) error { return rs.ps.SolveElectron(rs.sh, i, st.points) })
		bcPh, phDone := gfNodes("ph", points, prevBCPh, prevMixPi,
			func(j int) error { return rs.ps.PreparePhononBC(rs.sh, j) },
			func(j int) error { return rs.ps.SolvePhonon(rs.sh, j, st.points) })

		// Deterministic accumulation: the point solves land in slots, and
		// one node per species folds them in global point order through
		// negf's own accumulator — the identical association the
		// sequential fold uses, independent of scheduling. After a failure
		// the slots may hold stale results; the iteration is discarded.
		elAccum := node("accum/el", sdfg.Compute, func() {
			if !st.failed() {
				st.part.AddElectron(p, st.points.El...)
			}
		}, elDone...)
		phAccum := node("accum/ph", sdfg.Compute, func() {
			if !st.failed() {
				st.part.AddPhonon(p, st.points.Ph...)
			}
		}, phDone...)

		// Collision partials: need the fresh G≷/D≷ and the pre-mix Σ≷/Π≷,
		// so they must precede the mixing nodes — on the graph they overlap
		// the exchange waits instead of padding the GF phase.
		elLoss := node("collision/el", sdfg.Compute, func() {
			st.part.ElectronEnergyLoss = rs.ps.ElectronCollisionSum(pairs)
		}, elDone...)
		phGain := node("collision/ph", sdfg.Compute, func() {
			st.part.PhononEnergyGain = rs.ps.PhononCollisionSum(points)
		}, phDone...)

		// ── SSE exchanges. Posts fire as soon as this rank's own inputs
		// exist — G≷ can be in flight while phonon points still compute,
		// the §7.1.3 overlap — and gate on the previous conv fence: the
		// skip decision derives only from reduced data settled at that
		// fence, so it is identical on every rank — all post or all skip,
		// and the nonblocking collectives stay matched. Within one
		// iteration the decision cannot change (only this iteration's own
		// conv, which runs after all of these nodes, can move the fence
		// into it), so a posted request is always waited.
		commDeps := func(deps ...sdfg.NodeID) []sdfg.NodeID {
			if prevConv >= 0 {
				deps = append(deps, prevConv)
			}
			return deps
		}
		postG := node("post/G", sdfg.Comm, func() { st.reqG = st.plan.PostG(c) }, commDeps(elDone...)...)
		postD := node("post/D", sdfg.Comm, func() { st.reqD = st.plan.PostD(c) }, commDeps(phDone...)...)
		waitG := add("wait/G", sdfg.Comm, func() {
			if st.reqG != nil {
				st.plan.UnpackG(st.reqG.Wait())
			}
		}, postG, postD)
		waitD := add("wait/D", sdfg.Comm, func() {
			if st.reqD != nil {
				st.plan.UnpackD(st.reqD.Wait())
			}
		}, postD, postG)
		tile := node("sse/tile", sdfg.Compute, func() {
			st.plan.ComputeTile()
			st.part.sse = st.plan.Output().Stats
		}, waitG, waitD)
		postSig := node("post/Sigma", sdfg.Comm, func() { st.reqSig = st.plan.PostSigma(c) }, tile)
		postPi := node("post/Pi", sdfg.Comm, func() { st.reqPi = st.plan.PostPi(c) }, tile)
		waitSig := add("wait/Sigma", sdfg.Comm, func() {
			if st.reqSig != nil {
				st.plan.UnpackSigma(st.reqSig.Wait())
			}
		}, postSig, postPi)
		waitPi := add("wait/Pi", sdfg.Comm, func() {
			if st.reqPi != nil {
				st.plan.UnpackPi(st.reqPi.Wait())
			}
		}, postPi, postSig)

		// Precision telemetry: a blocking max-reduction of the probe's tile
		// deviation, legal only in a one-iteration window (Validate
		// enforces it). Like the wait nodes, it depends on both Σ/Π posts,
		// so a worker may only block here once this rank has posted
		// everything its peers need to reach their own probe.
		var probe []sdfg.NodeID
		if opts.ErrorProbe {
			probe = append(probe, node("probe/qerr", sdfg.Comm, func() {
				st.qerr = reduceProbe(c, st.plan)
			}, tile, postSig, postPi))
		}

		// Per-point mixing: the cross-iteration release points. The next
		// iteration's solve of point i starts the moment its own Σ plane
		// is mixed — it does not wait for the whole mixing sweep. A
		// skipped mix leaves the solver state at the last valid iteration,
		// which is exactly the discard rule of the speculation fence.
		// tensor.MixSlice is the blend the sequential solver applies
		// tensor-wide.
		mixSig := make([]sdfg.NodeID, len(pairs))
		for i, pair := range pairs {
			ik, ie := pair[0], pair[1]
			mixSig[i] = node(fmt.Sprintf("mix/Sigma/%d,%d", ik, ie), sdfg.Compute, func() {
				out := st.plan.Output()
				tensor.MixSlice(rs.ps.SigL.Plane(ik, ie), out.SigL.Plane(ik, ie), opts.Mixing)
				tensor.MixSlice(rs.ps.SigG.Plane(ik, ie), out.SigG.Plane(ik, ie), opts.Mixing)
			}, waitSig, elLoss)
		}
		mixPi := make([]sdfg.NodeID, len(points))
		for j, point := range points {
			iq, m := point[0], point[1]
			mixPi[j] = node(fmt.Sprintf("mix/Pi/%d,%d", iq, m), sdfg.Compute, func() {
				out := st.plan.Output()
				tensor.MixSlice(rs.ps.PiL.Plane(iq, m-1), out.PiL.Plane(iq, m-1), opts.Mixing)
				tensor.MixSlice(rs.ps.PiG.Plane(iq, m-1), out.PiG.Plane(iq, m-1), opts.Mixing)
			}, waitPi, phGain)
		}

		// ── Ride-along reduction, overlapping the Σ/Π waits: observables
		// plus the control word (failure count + fractional stop request)
		// in one IAllreduce. The post depends on the Σ/Π posts only, so the
		// plan's off-rank byte counter already covers all four exchanges
		// of this iteration.
		obsPost := node("post/obs", sdfg.Comm, func() {
			if st.failed() {
				st.part.flag = 1
			}
			if r == 0 && pr.wantStop {
				st.part.flag += stopRideFlag
			}
			st.part.sseB = float64(st.plan.OffRankBytes())
			st.part.redB = redShare
			st.part.fbk = float64(st.plan.FallbackBlocks())
			st.reqObs = c.IAllreduce(decomp.SlotObs, st.part.pack(p))
		}, elAccum, phAccum, elLoss, phGain, tile, postSig, postPi)
		waitObs := add("wait/obs", sdfg.Comm, func() {
			if st.reqObs != nil {
				st.global = unpackObs(st.reqObs.Wait(), p)
			}
		}, obsPost)

		// ── Conv fence: the correctness gate of the speculation. It runs
		// after every node of its iteration (transitively through its
		// deps), computes the identical decision on every rank from the
		// reduced data, and moves the fence — discarding the in-flight
		// speculated iterations behind it.
		convDeps := append([]sdfg.NodeID{waitObs}, mixSig...)
		convDeps = append(convDeps, mixPi...)
		convDeps = append(convDeps, probe...)
		if prevConv >= 0 {
			convDeps = append(convDeps, prevConv)
		}
		conv := node(fmt.Sprintf("conv/%d", a), sdfg.Compute, func() {
			gl := st.global
			if gl == nil {
				return
			}
			if gl.flag != 0 {
				pr.fence(a, time.Since(winStart))
				if flagFailure(gl.flag) {
					pr.failed = true
					pr.err = st.err // nil on healthy ranks
				}
				return
			}
			cur := gl.CurrentL
			rel, converged, err := negf.ConvergenceStep(a, cur, pr.prev, opts.Tol)
			now := time.Since(winStart)
			if err != nil {
				// Decided from the reduced current, so every rank fails
				// this iteration alike — no collective is abandoned.
				pr.fence(a, now)
				pr.failed, pr.err = true, err
				return
			}
			if r == 0 {
				iterSt := gl.row(a, rel, st.qerr)
				iterSt.WallNs = (now - pr.lastConv).Nanoseconds()
				iterSt.ComputeNs, iterSt.CommNs = st.compNs.Load(), st.commNs.Load()
				res.IterTrace = append(res.IterTrace, iterSt)
				if opts.Progress != nil && pr.stopErr == nil {
					if err := opts.Progress(iterSt); err != nil {
						pr.stopErr = err
						pr.wantStop = true
					}
				}
			}
			pr.lastConv = now
			pr.local, pr.global = st.part, gl
			pr.prev = cur
			if converged {
				pr.converged = true
				pr.fence(a+1, now)
			}
		}, convDeps...)

		prevConv = conv
		prevBCEl, prevBCPh = bcEl, bcPh
		prevMixSig, prevMixPi = mixSig, mixPi
	}
	return g
}
