package dist

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/negf"
	"repro/internal/obs"
	"repro/internal/sdfg"
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
// tracks symmetrically — the run's control container of the window
// graph. All plain fields are written only by conv nodes (which the
// container chains) or between window drains, so the graph and the
// drain barrier order every access;
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
// iteration of the window graph writes but the rank's tile plan, which
// every slot of the ring shares, allocated once per run and re-armed
// (arm) for each iteration it carries. buildWindowGraph declares the
// containers its fields belong to, so the graph orders every write
// before the nodes that read it; err alone is guarded by mu.
type slot struct {
	iter int // the absolute iteration the slot carries in this window

	first, conv sdfg.NodeID // the slot's nodes in the window graph, conv last

	mu  sync.Mutex
	err error // first failed point solve of this rank

	// points holds the point results; part, global and obsBuf are the
	// iteration's partial, its reduction and the reduction's payload.
	points       *negf.PointResults
	part, global partialObs
	obsBuf       []complex128

	reqG, reqD, reqSig, reqPi *comm.MatRequest
	reqObs                    *comm.VecRequest
}

// newSlot allocates one slot of the rank's ring.
func (rs *rankState) newSlot(opts Options) *slot {
	st := &slot{points: rs.sh.NewResults()}
	if opts.ErrorProbe {
		st.part.probe = make([]float64, 4*opts.Ranks)
		st.global.probe = make([]float64, 4*opts.Ranks)
	}
	return st
}

// arm re-arms the slot for absolute iteration a, between windows: a fresh
// accumulator, no error and no request outstanding. The point results are
// overwritten by the nodes that produce them.
func (st *slot) arm(a int, p device.Params) {
	st.iter = a
	st.err = nil
	st.part.empty(p)
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

// try runs the GF-phase step of one point unless a point of this rank's
// shard has already failed (the iteration is then discarded at its conv),
// and records the step's own failure.
func (st *slot) try(step func() error) {
	if st.failed() {
		return
	}
	if err := step(); err != nil {
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
//
// Every node declares the containers it reads and writes, and the graph
// orders them from that: the point solves of iteration k+1 follow the
// mix of their own Σ or Π plane in iteration k — the finest-grained
// cross-iteration release the data allows — and a container shared by
// the slots (a point's planes, the received halo, the run's control
// state) is never written while an earlier reader may still run. Three
// rules carry what no container shows:
//
//   - stage rule: a wait follows both posts of its exchange stage, so it
//     blocks a worker only once this rank has posted everything its
//     peers need to reach the same stage — deadlock-free for any pool
//     size, including Workers=1;
//   - progress rule: every post of iteration k+1 follows conv k, so the
//     skip decision, derived only from reduced data, is settled before
//     any rank commits to a collective — all ranks post or all skip, and
//     the nonblocking exchanges stay matched. The observable reduction
//     is folded in rank 0's wait/obs, so a peer's wait/obs returns only
//     once rank 0's has run; since what rank 0's wait/obs of an
//     iteration needs never waits behind a peer's wait/obs of the same
//     iteration, that cannot deadlock either;
//   - conv fence: conv follows every node of its slot, so it folds the
//     executor's whole record of its iteration (slot.clock) and moves
//     the speculation fence only after its iteration's work is done.
//
// A failing node records its error and the graph still drains, so every
// rank posts every collective of an iteration it entered — failure is
// agreed in the reduction, never by abandoning a peer; a rank-0
// cancellation likewise rides the next reduction's control word.
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

	// The containers: fresh hands out n new ids. The rank's own, shared
	// by every slot: the point solver's Σ≷ and G≷ plane of each owned
	// pair, its Π≷ and D≷ plane of each owned point, the non-owned G≷
	// and D≷ planes the unpacks write, the run's control state, and the
	// tile plan's state: its output's Σ≷ and Π≷; per exchange its wire
	// state (segment scratch, the slot's request and the post's share of
	// the traffic counters, whose atomic adds commute); and the counters
	// post/obs reads and resets. Every node of a slot that touches the
	// plan already runs after the previous slot's conv — the posts by the
	// progress rule, the waits, tile and mixes through the posts — so the
	// edges these add are implied.
	var next sdfg.Container
	fresh := func(n int) []sdfg.Container {
		ids := make([]sdfg.Container, n)
		for i := range ids {
			ids[i] = next
			next++
		}
		return ids
	}
	pairs, points := rs.sh.Pairs, rs.sh.Points
	sigPlane, gPlane := fresh(len(pairs)), fresh(len(pairs))
	piPlane, dPlane := fresh(len(points)), fresh(len(points))
	halo := fresh(2) // [G, D]
	run := fresh(1)
	tileOut := fresh(2) // [Σ, Π]
	wire := fresh(4)    // [G, D, Σ, Π]
	counters := fresh(1)
	pl := rs.plan

	var after []sdfg.NodeID // the previous slot's conv, once there is one

	for _, st := range ring {
		// A slot idles once the fence has moved to or before its
		// iteration, and in a window that runs past the last iteration.
		skip := func() bool { return pr.stopAt.Load() <= int64(st.iter) || st.iter >= opts.MaxIter }
		st.first = sdfg.NodeID(g.Len())

		// The slot's containers: the point result slots; the partial's
		// field groups, one per writer — accum/el, accum/ph,
		// collision/el, collision/ph and the tile's stats with its error
		// probe; the obs buffer and request with the control words
		// post/obs sets on the partial; and the reduced global.
		elRes, phRes := fresh(len(pairs)), fresh(len(points))
		part := fresh(5)
		obsReq, global := fresh(1), fresh(1)

		// add appends a node of the slot in trace category cat: task,
		// sse (the tile), or a collective — exchange, or reduce (the
		// observables) — which is a comm node. No node returns an error:
		// a failure is recorded and agreed in the reduction.
		add := func(label, cat string, reads, writes []sdfg.Container, body func(), deps ...sdfg.NodeID) sdfg.NodeID {
			kind := sdfg.Compute
			if cat == "exchange" || cat == "reduce" {
				kind = sdfg.Comm
			}
			if opts.Tracer != nil {
				names = append(names, nodeName{label, cat})
			}
			return g.Add(sdfg.Spec{Label: label, Kind: kind, Reads: reads, Writes: writes, Run: func() error {
				body()
				return nil
			}}, deps...)
		}
		// node adds a task that is a no-op once the fence has moved to or
		// before this iteration — everything but the waits (which follow
		// their post) and the conv fence itself.
		node := func(label, cat string, reads, writes []sdfg.Container, body func(), deps ...sdfg.NodeID) sdfg.NodeID {
			return add(label, cat, reads, writes, func() {
				if !skip() {
					body()
				}
			}, deps...)
		}

		// ── GF solves: one node per owned point, a no-op once a point of
		// this rank's shard has failed. A solve runs on the scratch of the
		// worker the executor's record names for its node. The solve looks
		// its boundaries up where it runs: iteration 0 decimates them, and
		// every later iteration's solve of the point follows the solve
		// that cached them, through its own plane.
		for i, pt := range pairs {
			var id sdfg.NodeID
			id = node(fmt.Sprintf("rgf/el/%d,%d", pt[0], pt[1]), "task", sigPlane[i:i+1], []sdfg.Container{gPlane[i], elRes[i]},
				func() { st.try(func() error { return rs.ps.SolveElectron(ex.Span(id).Worker, i, st.points) }) })
		}
		for j, pt := range points {
			var id sdfg.NodeID
			id = node(fmt.Sprintf("rgf/ph/%d,%d", pt[0], pt[1]), "task", piPlane[j:j+1], []sdfg.Container{dPlane[j], phRes[j]},
				func() { st.try(func() error { return rs.ps.SolvePhonon(ex.Span(id).Worker, j, st.points) }) })
		}

		// Deterministic accumulation: the point solves land in slots, and
		// one node per species folds them in global point order through
		// negf's own accumulator — the identical association the
		// kit's fold uses, independent of scheduling. After a failure
		// the slots may hold stale results; the iteration is discarded.
		node("accum/el", "task", elRes, part[0:1], func() {
			if !st.failed() {
				st.part.AddElectron(p, st.points.El...)
			}
		})
		node("accum/ph", "task", phRes, part[1:2], func() {
			if !st.failed() {
				st.part.AddPhonon(p, st.points.Ph...)
			}
		})

		// Collision partials: the fresh G≷/D≷ against the pre-mix Σ≷/Π≷;
		// on the graph they overlap the exchange waits instead of padding
		// the GF phase.
		node("collision/el", "task", slices.Concat(sigPlane, gPlane), part[2:3], func() {
			st.part.ElectronEnergyLoss = rs.ps.ElectronCollisionSum()
		})
		node("collision/ph", "task", slices.Concat(piPlane, dPlane), part[3:4], func() {
			st.part.PhononEnergyGain = rs.ps.PhononCollisionSum()
		})

		// ── SSE exchanges. Posts fire as soon as this rank's own inputs
		// exist — G≷ can be in flight while phonon points still compute,
		// the §7.1.3 overlap. Within one iteration the skip decision
		// cannot change (only this iteration's own conv, which runs after
		// all of these nodes, can move the fence into it), so a posted
		// request is always waited. A wait releases its rows once
		// unpacked, so the next iteration's posts write into them.
		postG := node("post/G", "exchange", gPlane, wire[0:1], func() { st.reqG = pl.PostG(c) }, after...)
		postD := node("post/D", "exchange", dPlane, wire[1:2], func() { st.reqD = pl.PostD(c) }, after...)
		add("wait/G", "exchange", wire[0:1], halo[0:1], func() {
			if st.reqG != nil {
				pl.UnpackG(st.reqG.Wait())
				st.reqG.Release()
			}
		}, postG, postD)
		add("wait/D", "exchange", wire[1:2], halo[1:2], func() {
			if st.reqD != nil {
				pl.UnpackD(st.reqD.Wait())
				st.reqD.Release()
			}
		}, postD, postG)
		node("sse/tile", "sse", slices.Concat(gPlane, dPlane, halo), []sdfg.Container{tileOut[0], tileOut[1], part[4]}, func() {
			pl.ComputeTile()
			st.part.sse = pl.Output().Stats
		})
		postSig := node("post/Sigma", "exchange", tileOut[0:1], wire[2:3], func() { st.reqSig = pl.PostSigma(c) }, after...)
		postPi := node("post/Pi", "exchange", tileOut[1:2], wire[3:4], func() { st.reqPi = pl.PostPi(c) }, after...)
		add("wait/Sigma", "exchange", wire[2:3], tileOut[0:1], func() {
			if st.reqSig != nil {
				pl.UnpackSigma(st.reqSig.Wait())
				st.reqSig.Release()
			}
		}, postSig, postPi)
		add("wait/Pi", "exchange", wire[3:4], tileOut[1:2], func() {
			if st.reqPi != nil {
				pl.UnpackPi(st.reqPi.Wait())
				st.reqPi.Release()
			}
		}, postPi, postSig)

		// Mixing, per point: the cross-iteration release points. A
		// skipped mix leaves the solver state at the last valid
		// iteration, which is exactly the discard rule of the speculation
		// fence. tensor.MixSlice is the blend the kit's SSEPhase applies
		// tensor-wide. The Anderson accelerator extrapolates over the
		// whole state at once, its history beside it, so under it one
		// node mixes every plane.
		if opts.Anderson {
			planes := slices.Concat(sigPlane, piPlane)
			node("mix/anderson", "task", slices.Concat(tileOut, planes), planes, func() {
				rs.ps.MixAnderson(pl.Output(), opts.Mixing)
			})
		} else {
			for i, pair := range pairs {
				node(fmt.Sprintf("mix/Sigma/%d,%d", pair[0], pair[1]), "task", []sdfg.Container{tileOut[0], sigPlane[i]}, sigPlane[i:i+1], func() {
					rs.ps.MixSigma(i, pl.Output(), opts.Mixing)
				})
			}
			for j, point := range points {
				node(fmt.Sprintf("mix/Pi/%d,%d", point[0], point[1]), "task", []sdfg.Container{tileOut[1], piPlane[j]}, piPlane[j:j+1], func() {
					rs.ps.MixPi(j, pl.Output(), opts.Mixing)
				})
			}
		}

		// ── Ride-along reduction, overlapping the Σ/Π waits: observables
		// plus the control word (failure count + fractional stop request)
		// and this rank's probe words in one IAllreduce. It reads the
		// four posts' wire containers, so the plan's counters cover all
		// four exchanges of this iteration, and it resets them: the next
		// iteration's posts, which follow this conv, count afresh.
		node("post/obs", "reduce", slices.Concat(part, wire, run), slices.Concat(obsReq, counters), func() {
			if st.failed() {
				st.part.flag = 1
			}
			if r == 0 && pr.wantStop {
				st.part.flag += stopRideFlag
			}
			if st.part.probe != nil {
				st.part.setProbe(r, pl)
			}
			st.part.sseB = float64(pl.OffRankBytes())
			st.part.redB = redShare
			st.part.fbk = float64(pl.FallbackBlocks())
			pl.ResetCounters()
			st.obsBuf = st.part.pack(p, st.obsBuf)
			st.reqObs = c.IAllreduce(decomp.SlotObs, st.obsBuf)
		}, after...)
		add("wait/obs", "reduce", obsReq, global, func() {
			if st.reqObs != nil {
				st.global.unpack(st.reqObs.Wait(), p)
				st.reqObs.Release()
			}
		})

		// ── Conv fence: the correctness gate of the speculation. It
		// computes the identical decision on every rank from the reduced
		// data and moves the fence — discarding the in-flight speculated
		// iterations behind it. On rank 0 it folds the executor's record
		// of its iteration into the row's timings.
		members := make([]sdfg.NodeID, 0, g.Len()-int(st.first))
		for id := st.first; id < sdfg.NodeID(g.Len()); id++ {
			members = append(members, id)
		}
		st.conv = node("conv", "task", slices.Concat(part, obsReq, global), run, func() {
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
		}, members...)
		after = []sdfg.NodeID{st.conv}
	}
	return g, names
}
