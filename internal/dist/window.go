package dist

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
	// local and global are copies of the last valid iteration's partial
	// before and after the reduction, taken at its conv node: the slot
	// the iteration ran in is re-armed for a later one, possibly while a
	// speculated iteration still runs in it.
	local, global partialObs
}

// fence moves the speculation fence to iteration at and stops the run
// after the current window drains.
func (pr *pipeRun) fence(at int) {
	pr.stopAt.Store(int64(at))
	pr.halt = true
}

// slot is one iteration's storage in a run's ring: everything an
// iteration of the window graph writes, allocated once per run and
// re-armed (arm) for each iteration it carries. Fields are written by
// exactly one node each (or guarded by mu), and the executor's
// scheduling lock orders every write before the nodes that consume it.
type slot struct {
	iter int // the absolute iteration the slot carries in this window

	first, conv sdfg.NodeID // the slot's nodes in the window graph, conv last

	mu  sync.Mutex
	err error // first failed point solve of this rank

	// plan owns the tile output, the tile with its scratch and the wire
	// buffers; points holds the point results; part, global and obsBuf
	// are the iteration's partial, its reduction and the reduction's
	// payload.
	plan         *decomp.DaCePlan
	points       *negf.PointResults
	part, global partialObs
	obsBuf       []complex128

	reqG, reqD, reqSig, reqPi *comm.MatRequest
	reqObs                    *comm.VecRequest
}

// newSlot allocates one slot of the rank's ring.
func (rs *rankState) newSlot(opts Options) *slot {
	pl := decomp.NewDaCePlan(rs.c.Rank(), rs.tiles, rs.src, rs.atomSets, rs.in).
		WithPrecision(opts.Precision)
	if opts.ErrorProbe {
		pl.WithErrorProbe()
	}
	if opts.Kernel != nil {
		pl.WithKernel(opts.Kernel)
	}
	st := &slot{plan: pl, points: rs.sh.NewResults()}
	if opts.ErrorProbe {
		st.part.probe = make([]float64, 4*opts.Ranks)
		st.global.probe = make([]float64, 4*opts.Ranks)
	}
	return st
}

// arm re-arms the slot for absolute iteration a, between windows: a fresh
// accumulator and counters, no error and no request outstanding. The
// point results, the tile output and the wire buffers are overwritten by
// the nodes that produce them.
func (st *slot) arm(a int, p device.Params) {
	st.iter = a
	st.err = nil
	st.part.empty(p)
	st.plan.ResetCounters()
	st.reqG, st.reqD, st.reqSig, st.reqPi, st.reqObs = nil, nil, nil, nil, nil
}

// clock folds the executor's record of the slot's iteration for its conv
// node, which every other node of the slot precedes: the wall from the
// window's zero, or the previous slot's conv (the node before first), to
// this conv, and the node time by kind, conv excluded.
func (st *slot) clock(ex *sdfg.Executor) (wall, compute, comm int64) {
	wall = ex.Span(st.conv).Start.Nanoseconds()
	if st.first > 0 {
		wall -= ex.Span(st.first - 1).Start.Nanoseconds()
	}
	for id := st.first; id < st.conv; id++ {
		sp := ex.Span(id)
		if d := (sp.End - sp.Start).Nanoseconds(); sp.Kind == sdfg.Comm {
			comm += d
		} else {
			compute += d
		}
	}
	return wall, compute, comm
}

func (st *slot) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
}

func (st *slot) failed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err != nil
}

// try runs the GF-phase step of point i unless a point of this rank's
// shard has already failed (the iteration is then discarded at its conv),
// and records the step's own failure.
func (st *slot) try(step func(i int) error, i int) {
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
// window of depth iterations, so iteration n+1's point solves start as
// soon as iteration n's mixed Σ≷/Π≷ is available for their points
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

	pr := &pipeRun{}
	pr.stopAt.Store(math.MaxInt64)

	// Compile the run: a ring of one slot per iteration of the window and
	// one graph over it, run by the executor every window. A window past
	// the last iteration leaves its trailing slots idle.
	p := dev.P
	ring := make([]*slot, min(opts.PipelineDepth, opts.MaxIter))
	for k := range ring {
		ring[k] = rs.newSlot(opts)
	}
	g, names := rs.buildWindowGraph(opts, ex, pr, ring, res)

	for base := 0; base < opts.MaxIter && !pr.halt; base += len(ring) {
		for k, st := range ring {
			st.arm(base+k, p)
		}
		tr, err := ex.Run(g)
		if err != nil {
			return fmt.Errorf("dist: window at iteration %d: %w", base, err)
		}
		if opts.Tracer != nil {
			mirror(opts, r, tr, names, pr, ring, base)
		}
		if pr.failed {
			if pr.err != nil {
				return fmt.Errorf("dist: iteration %d: %w", pr.stopAt.Load(), pr.err)
			}
			return nil
		}
	}

	if r == 0 {
		res.stopErr = pr.stopErr
	}
	// A stop request, and a convergence inside a deeper window, discard
	// an iteration whose mix nodes have already run.
	var final *negf.SigmaState
	if opts.Ranks == 1 && pr.stopErr == nil && !(pr.converged && opts.PipelineDepth > 1) {
		final = &negf.SigmaState{SigL: rs.ps.SigL, SigG: rs.ps.SigG, PiL: rs.ps.PiL, PiG: rs.ps.PiG}
	}
	rs.epilogue(opts, res, pr.converged, &pr.local, &pr.global, final)
	return nil
}

// nodeName is a node's label and the category the phase view groups it by.
type nodeName struct{ label, cat string }

// mirror places rank r's record of the window from iteration base on the
// trace by one offset, so a task encloses exactly the bc/rgf spans
// recorded inside it: the nodes of every slot that carried an iteration,
// on track 100+worker (a one-worker pool has no worker lanes: track 0),
// the window envelope, and, when the window halted the run, the tail from
// the deciding conv to the drain — pure speculation overhead — as a stall
// span, plus one marker per discarded iteration.
func mirror(opts Options, r int, tr *sdfg.Trace, names []nodeName, pr *pipeRun, ring []*slot, base int) {
	trc, wall := opts.Tracer, tr.Wall.Nanoseconds()
	off := trc.Offset(tr.Zero)
	lane := 100
	if opts.Workers == 1 {
		lane = 0
	}
	for _, st := range ring {
		for id := st.first; id <= st.conv && st.iter < opts.MaxIter; id++ {
			sp, n := tr.Spans[id], names[id]
			trc.Add(obs.Span{Name: n.label, Cat: n.cat, Rank: r, Track: lane + sp.Worker, I: -1, J: -1,
				Start: off + sp.Start.Nanoseconds(), Dur: (sp.End - sp.Start).Nanoseconds()})
		}
	}
	trc.Add(obs.Span{Name: "window", Cat: "iter", Rank: r, I: base, J: -1, Start: off, Dur: wall})
	if !pr.halt {
		return
	}
	// The deciding conv: a convergence moves the fence past its own
	// iteration, a failure or a stop request onto it.
	k := int(pr.stopAt.Load()) - base
	if pr.converged {
		k--
	}
	decided := tr.Spans[ring[k].conv].Start.Nanoseconds()
	stall := func(name string, i int) {
		trc.Add(obs.Span{Name: name, Cat: "stall", Rank: r, Track: 99, I: i, J: -1, Start: off + decided, Dur: wall - decided})
	}
	stall("pipeline/fence", base)
	for _, st := range ring {
		if a := st.iter; a < opts.MaxIter && int64(a) >= pr.stopAt.Load() {
			stall("pipeline/discard", a)
		}
	}
}

// buildWindowGraph is the run's compile step: it lays out a window of
// consecutive self-consistent iterations, one per slot of the ring, as
// one dataflow graph — the only task-graph builder of the package — which
// the rank's executor then runs once per window. Node bodies read their
// iteration from their slot, so the graph, its closures and its labels
// are built once per run. Node kinds follow §4's SDFG: one solve per grid
// point (its boundary lookup and RGF), collision partials, the four SSE
// tile exchanges, the tile kernel, mixing, and the observable reduction.
// Three things carry the window:
//
//   - mixing is split into per-point nodes, so iteration k+1's solve of a
//     point depends only on the mixed Σ (or Π) of that same point — the
//     finest-grained cross-iteration release the data allows (the
//     one-rank Anderson accelerator mixes the whole state in one node);
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
// The observable reduction follows comm's progress rule: it is folded in
// rank 0's wait/obs, so a peer's wait/obs returns only once rank 0's has
// run. That cannot deadlock either, because on every rank every post of
// iteration k depends, through conv k−1, on that rank's wait/obs of
// iteration k−1: what rank 0's wait/obs of an iteration needs — its own
// nodes of that iteration and every rank's posts of it — never waits
// behind a peer's wait/obs of the same iteration.
//
// Decisions derive only from globally reduced values (the current and
// the control word), so every rank moves the fence identically with no
// agreement collective of its own; a rank-0 cancellation is folded into
// the next reduction's control word instead of being acted on locally.
//
// It returns the graph and, when the run is traced, each node's trace
// name.
func (rs *rankState) buildWindowGraph(opts Options, ex *sdfg.Executor, pr *pipeRun, ring []*slot, res *Result) (*sdfg.Graph, []nodeName) {
	p := rs.dev.P
	c := rs.c
	r := c.Rank()
	g := sdfg.New()
	var names []nodeName
	redShare := reduceShare(c, vecLen(p)+len(ring[0].part.probe))

	var prevConv sdfg.NodeID = -1
	var prevMixSig, prevMixPi []sdfg.NodeID

	for k, st := range ring {
		// A slot idles once the fence has moved to or before its
		// iteration, and in a window that runs past the last iteration.
		skip := func() bool { return pr.stopAt.Load() <= int64(st.iter) || st.iter >= opts.MaxIter }
		st.first = sdfg.NodeID(g.Len())
		// add appends a node of the slot in trace category cat: task,
		// sse (the tile), or a collective — exchange, or reduce (the
		// observables) — which is a comm node. No node returns an error:
		// a failure is recorded and agreed in the reduction.
		add := func(label, cat string, body func(), deps ...sdfg.NodeID) sdfg.NodeID {
			kind := sdfg.Compute
			if cat == "exchange" || cat == "reduce" {
				kind = sdfg.Comm
			}
			if opts.Tracer != nil {
				names = append(names, nodeName{label, cat})
			}
			return g.Add(sdfg.Spec{Label: label, Kind: kind, Run: func() error {
				body()
				return nil
			}}, deps...)
		}
		// node adds a task that is a no-op once the fence has moved to or
		// before this iteration — everything but the waits (which follow
		// their post) and the conv fence itself.
		node := func(label, cat string, body func(), deps ...sdfg.NodeID) sdfg.NodeID {
			return add(label, cat, func() {
				if !skip() {
					body()
				}
			}, deps...)
		}

		// ── GF solves: one node per owned point, a no-op once a point of
		// this rank's shard has failed. The solve looks its boundaries up
		// where it runs: iteration 0 decimates them, and every later
		// iteration's solve of the point already waits (through the
		// previous iteration's mix of its own Σ or Π plane) for the
		// solve that cached them, so it hits.
		pairs, points := rs.sh.Pairs, rs.sh.Points
		gfNodes := func(species string, pts [][2]int, prevMix []sdfg.NodeID, solve func(i int) error) []sdfg.NodeID {
			done := make([]sdfg.NodeID, len(pts))
			for i, pt := range pts {
				var deps []sdfg.NodeID
				if k > 0 {
					deps = append(deps, prevMix[i])
				}
				done[i] = node(fmt.Sprintf("rgf/%s/%d,%d", species, pt[0], pt[1]), "task",
					func() { st.try(solve, i) }, deps...)
			}
			return done
		}
		elDone := gfNodes("el", pairs, prevMixSig,
			func(i int) error { return rs.ps.SolveElectron(rs.sh, i, st.points) })
		phDone := gfNodes("ph", points, prevMixPi,
			func(j int) error { return rs.ps.SolvePhonon(rs.sh, j, st.points) })

		// Deterministic accumulation: the point solves land in slots, and
		// one node per species folds them in global point order through
		// negf's own accumulator — the identical association the
		// kit's fold uses, independent of scheduling. After a failure
		// the slots may hold stale results; the iteration is discarded.
		elAccum := node("accum/el", "task", func() {
			if !st.failed() {
				st.part.AddElectron(p, st.points.El...)
			}
		}, elDone...)
		phAccum := node("accum/ph", "task", func() {
			if !st.failed() {
				st.part.AddPhonon(p, st.points.Ph...)
			}
		}, phDone...)

		// Collision partials: need the fresh G≷/D≷ and the pre-mix Σ≷/Π≷,
		// so they must precede the mixing nodes — on the graph they overlap
		// the exchange waits instead of padding the GF phase.
		elLoss := node("collision/el", "task", func() {
			st.part.ElectronEnergyLoss = rs.ps.ElectronCollisionSum(pairs)
		}, elDone...)
		phGain := node("collision/ph", "task", func() {
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
		postG := node("post/G", "exchange", func() { st.reqG = st.plan.PostG(c) }, commDeps(elDone...)...)
		postD := node("post/D", "exchange", func() { st.reqD = st.plan.PostD(c) }, commDeps(phDone...)...)
		waitG := add("wait/G", "exchange", func() {
			if st.reqG != nil {
				st.plan.UnpackG(st.reqG.Wait())
			}
		}, postG, postD)
		waitD := add("wait/D", "exchange", func() {
			if st.reqD != nil {
				st.plan.UnpackD(st.reqD.Wait())
			}
		}, postD, postG)
		tile := node("sse/tile", "sse", func() {
			st.plan.ComputeTile()
			st.part.sse = st.plan.Output().Stats
		}, waitG, waitD)
		postSig := node("post/Sigma", "exchange", func() { st.reqSig = st.plan.PostSigma(c) }, tile)
		postPi := node("post/Pi", "exchange", func() { st.reqPi = st.plan.PostPi(c) }, tile)
		waitSig := add("wait/Sigma", "exchange", func() {
			if st.reqSig != nil {
				st.plan.UnpackSigma(st.reqSig.Wait())
			}
		}, postSig, postPi)
		waitPi := add("wait/Pi", "exchange", func() {
			if st.reqPi != nil {
				st.plan.UnpackPi(st.reqPi.Wait())
			}
		}, postPi, postSig)

		// Per-point mixing: the cross-iteration release points. The next
		// iteration's solve of point i starts the moment its own Σ plane
		// is mixed — it does not wait for the whole mixing sweep. A
		// skipped mix leaves the solver state at the last valid iteration,
		// which is exactly the discard rule of the speculation fence.
		// tensor.MixSlice is the blend the kit's SSEPhase applies
		// tensor-wide. The Anderson accelerator extrapolates over the whole
		// state at once, so under it one node mixes everything: it stands
		// in for every point's mix, and every point of the next iteration
		// (and the conv, once per point) waits for it.
		mixSig := make([]sdfg.NodeID, len(pairs))
		mixPi := make([]sdfg.NodeID, len(points))
		if opts.Anderson {
			all := node("mix/anderson", "task", func() {
				rs.ps.MixAnderson(st.plan.Output(), opts.Mixing)
			}, waitSig, waitPi, elLoss, phGain)
			for i := range mixSig {
				mixSig[i] = all
			}
			for j := range mixPi {
				mixPi[j] = all
			}
		} else {
			for i, pair := range pairs {
				ik, ie := pair[0], pair[1]
				mixSig[i] = node(fmt.Sprintf("mix/Sigma/%d,%d", ik, ie), "task", func() {
					out := st.plan.Output()
					tensor.MixSlice(rs.ps.SigL.Plane(ik, ie), out.SigL.Plane(ik, ie), opts.Mixing)
					tensor.MixSlice(rs.ps.SigG.Plane(ik, ie), out.SigG.Plane(ik, ie), opts.Mixing)
				}, waitSig, elLoss)
			}
			for j, point := range points {
				iq, m := point[0], point[1]
				mixPi[j] = node(fmt.Sprintf("mix/Pi/%d,%d", iq, m), "task", func() {
					out := st.plan.Output()
					tensor.MixSlice(rs.ps.PiL.Plane(iq, m-1), out.PiL.Plane(iq, m-1), opts.Mixing)
					tensor.MixSlice(rs.ps.PiG.Plane(iq, m-1), out.PiG.Plane(iq, m-1), opts.Mixing)
				}, waitPi, phGain)
			}
		}

		// ── Ride-along reduction, overlapping the Σ/Π waits: observables
		// plus the control word (failure count + fractional stop request)
		// and this rank's probe words in one IAllreduce. The post depends
		// on the Σ/Π posts only, so the plan's off-rank byte counter
		// already covers all four exchanges of this iteration.
		obsPost := node("post/obs", "reduce", func() {
			if st.failed() {
				st.part.flag = 1
			}
			if r == 0 && pr.wantStop {
				st.part.flag += stopRideFlag
			}
			if st.part.probe != nil {
				st.part.setProbe(r, st.plan)
			}
			st.part.sseB = float64(st.plan.OffRankBytes())
			st.part.redB = redShare
			st.part.fbk = float64(st.plan.FallbackBlocks())
			st.obsBuf = st.part.pack(p, st.obsBuf)
			st.reqObs = c.IAllreduce(decomp.SlotObs, st.obsBuf)
		}, elAccum, phAccum, elLoss, phGain, tile, postSig, postPi)
		waitObs := add("wait/obs", "reduce", func() {
			if st.reqObs != nil {
				st.global.unpack(st.reqObs.Wait(), p)
			}
		}, obsPost)

		// ── Conv fence: the correctness gate of the speculation. It runs
		// after every node of its iteration (transitively through its
		// deps), computes the identical decision on every rank from the
		// reduced data, and moves the fence — discarding the in-flight
		// speculated iterations behind it. On rank 0 it folds the
		// executor's record of its iteration into the row's timings.
		convDeps := append([]sdfg.NodeID{waitObs}, mixSig...)
		convDeps = append(convDeps, mixPi...)
		if prevConv >= 0 {
			convDeps = append(convDeps, prevConv)
		}
		conv := node("conv", "task", func() {
			if st.reqObs == nil {
				return
			}
			a, gl := st.iter, &st.global
			if gl.flag != 0 {
				pr.fence(a)
				if flagFailure(gl.flag) {
					pr.failed = true
					pr.err = st.err // nil on healthy ranks
				}
				return
			}
			cur := gl.CurrentL
			rel, converged, err := negf.ConvergenceStep(a, cur, pr.prev, opts.Tol)
			if err != nil {
				// Decided from the reduced current, so every rank fails
				// this iteration alike — no collective is abandoned.
				pr.fence(a)
				pr.failed, pr.err = true, err
				return
			}
			if r == 0 {
				iterSt := gl.row(a, rel)
				iterSt.WallNs, iterSt.ComputeNs, iterSt.CommNs = st.clock(ex)
				res.IterTrace = append(res.IterTrace, iterSt)
				if opts.Progress != nil && pr.stopErr == nil {
					if err := opts.Progress(iterSt); err != nil {
						pr.stopErr = err
						pr.wantStop = true
					}
				}
			}
			pr.local.assign(&st.part)
			pr.global.assign(gl)
			pr.prev = cur
			if converged {
				pr.converged = true
				pr.fence(a + 1)
			}
		}, convDeps...)

		st.conv = conv
		prevConv = conv
		prevMixSig, prevMixPi = mixSig, mixPi
	}
	return g, names
}
