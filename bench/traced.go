package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/obs"
	"repro/internal/qt"
	"repro/internal/sse"
)

// timingKernel wraps an SSE kernel and times every Compute from outside —
// the seam (negf.Options.Kernel / qt.WithSSEKernel) the solver already
// offers. For the first alsoMixed calls it additionally runs the mixed
// kernel on the same input and discards the result, so both kernels are
// timed in situ on identical data.
type timingKernel struct {
	inner     sse.Kernel
	alsoMixed int

	rec    *recorder
	run    string
	parent func() int

	mu        sync.Mutex
	computeNs []int64
	mixedNs   []int64 // per call; 0 when the mixed kernel did not run
	stats     []sse.Stats
}

func (k *timingKernel) Name() string { return k.inner.Name() }

func (k *timingKernel) Compute(in *sse.Input) *sse.Output {
	parent := -1
	if k.parent != nil {
		parent = k.parent()
	}
	sp := k.rec.begin(k.run, "sse.Compute", parent)
	t0 := time.Now()
	out := k.inner.Compute(in)
	d := time.Since(t0).Nanoseconds()
	k.rec.end(sp)

	k.mu.Lock()
	n := len(k.computeNs)
	k.mu.Unlock()
	var extra int64
	if n < k.alsoMixed {
		t0 = time.Now()
		sse.Mixed{Normalize: true}.Compute(in)
		extra = time.Since(t0).Nanoseconds()
	}
	k.mu.Lock()
	k.computeNs = append(k.computeNs, d)
	k.mixedNs = append(k.mixedNs, extra)
	k.stats = append(k.stats, out.Stats)
	k.mu.Unlock()
	return out
}

func nsToMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// inSitu is the bench-driven self-consistent loop of the traced run: the
// same negf.Solver the facade drives, but with the harness calling
// GFPhase and SSEPhase itself, so each phase, the kernel inside the SSE
// phase and the mixing around it are timed from outside. It returns the
// iteration count it converged in.
func inSitu(m *metricSet, dev *device.Device, rc qt.RunConfig, rec *recorder) (int, error) {
	const run = "in-situ"
	root := rec.begin(run, "negf loop", -1)
	defer rec.end(root)
	cur := root
	tk := &timingKernel{inner: sse.DaCe{}, alsoMixed: 2, rec: rec, run: run, parent: func() int { return cur }}

	opts := negf.DefaultOptions()
	opts.Kernel = tk
	opts.MaxIter = rc.MaxIterations
	opts.Tol = rc.Tolerance
	solver := negf.New(dev, opts)

	var gfMs, sseMs, iterMs []float64
	prev := math.NaN()
	converged := false
	for it := 0; it < opts.MaxIter; it++ {
		isp := rec.begin(run, fmt.Sprintf("iter %d", it), root)
		t0 := time.Now()
		sp := rec.begin(run, "negf.GFPhase", isp)
		if err := solver.GFPhase(); err != nil {
			return 0, fmt.Errorf("in-situ GF phase (iteration %d): %w", it, err)
		}
		rec.end(sp)
		t1 := time.Now()
		cur = rec.begin(run, "negf.SSEPhase", isp)
		solver.SSEPhase()
		rec.end(cur)
		t2 := time.Now()
		rec.end(isp)
		// The mixed kernel the wrapper ran beside DaCe is the harness's
		// own work, not the iteration's.
		extra := time.Duration(tk.mixedNs[it])
		gfMs = append(gfMs, ms(t1.Sub(t0)))
		sseMs = append(sseMs, ms(t2.Sub(t1)-extra))
		iterMs = append(iterMs, ms(t2.Sub(t0)-extra))

		c := solver.Obs.CurrentL
		rel := math.Abs(c-prev) / math.Max(math.Abs(c), 1e-300)
		if it > 0 && rel < opts.Tol {
			converged = true
			break
		}
		prev = c
	}
	if !converged {
		return len(iterMs), fmt.Errorf("in-situ loop did not converge in %d iterations", opts.MaxIter)
	}
	hits, misses := solver.BC.Stats()

	// One more (warm) iteration with the flop counter on: the counter
	// costs an atomic add per kernel call, so it stays off while the
	// phases above are timed.
	linalg.ResetFlops()
	linalg.EnableFlopCounting(true)
	err := solver.GFPhase()
	linalg.EnableFlopCounting(false)
	if err != nil {
		return 0, fmt.Errorf("in-situ flop-count iteration: %w", err)
	}
	m.set("linalg.flops_per_iter", float64(linalg.Flops()))

	compute := nsToMs(tk.computeNs)
	mixing := make([]float64, len(sseMs))
	for i := range sseMs {
		mixing[i] = sseMs[i] - compute[i]
	}
	var mixed []float64
	for _, ns := range tk.mixedNs {
		if ns > 0 {
			mixed = append(mixed, float64(ns)/1e6)
		}
	}
	st := tk.stats[0]
	dace := median(compute)
	m.set("negf.gf_phase_ms_p50", median(gfMs))
	m.set("negf.sse_phase_ms_p50", median(sseMs))
	m.set("negf.mix_ms_p50", median(mixing))
	m.set("negf.first_iter_ms", iterMs[0])
	m.set("sse.dace_ms", dace)
	m.set("sse.mixed_ms", median(mixed))
	m.set("sse.gflops", float64(st.Flops)/(dace*1e6))
	m.set("sse.matmuls_per_iter", float64(st.MatMuls))
	m.set("sse.flops_per_iter", float64(st.Flops))
	m.set("sse.bytes_moved_per_iter", float64(st.BytesMoved))
	m.set("bc.hit_ratio", float64(hits)/float64(max(1, hits+misses)))
	m.note("in-situ: %d iterations at bias %.2f; iteration median %.1f ms = GF %.1f + SSE %.1f (kernel %.1f + mix %.1f); first iteration %.1f ms",
		len(iterMs), rc.Spec.Bias, median(iterMs), median(gfMs), median(sseMs), dace, median(mixing), iterMs[0])
	m.note("in-situ: sse.Mixed on the same input %.1f ms (N=%d); kernel %.2f GFLOP/s, %d matmuls, %.3g flops, %.3g bytes moved (computed) per iteration; %.3g linalg flops per warm GF phase; bc cache %d hits / %d lookups",
		median(mixed), len(mixed), float64(st.Flops)/(dace*1e6), st.MatMuls, float64(st.Flops), float64(st.BytesMoved), float64(linalg.Flops()), hits, hits+misses)
	return len(iterMs), nil
}

// spansOfRank filters a solver trace to one rank.
func spansOfRank(tr *obs.Trace, rank int) []obs.Span {
	var out []obs.Span
	for _, s := range tr.Spans {
		if s.Rank == rank {
			out = append(out, s)
		}
	}
	return out
}

func windowsOf(spans []obs.Span) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Cat == "iter" {
			out = append(out, s)
		}
	}
	return out
}

// sequentialShares folds the solver's own spans of the traced pass's
// sequential solves into the in-situ shares and prints the
// reconciliation of attributed time against the iteration walls.
func sequentialShares(m *metricSet, solves []solveOutcome) {
	total := attribution{By: map[string]int64{}}
	var iterWallNs, cold0Ns int64
	var spans, iters, n int
	for _, o := range solves {
		if o.Result == nil || o.Result.Spans == nil || o.Job.Config.Ranks != 0 {
			continue
		}
		n++
		all := o.Result.Spans.Spans
		wins := windowsOf(all)
		a := attribute(all, wins)
		total.Wall += a.Wall
		for k, v := range a.By {
			total.By[k] += v
		}
		for _, st := range o.Result.Trace {
			iterWallNs += st.WallNs
		}
		if len(wins) > 0 {
			lo, hi := wins[0].Start, wins[0].Start+wins[0].Dur
			for _, s := range all {
				if s.Cat == "bc" && s.Start >= lo && s.Start < hi {
					cold0Ns += s.Dur
				}
			}
		}
		spans += len(all)
		iters += o.Result.Iterations
	}
	if n == 0 || total.Wall == 0 {
		return
	}
	covered := total.Wall - total.By["iter"]
	unattributed := 100 * float64(iterWallNs-covered) / float64(iterWallNs)
	m.set("rgf.share_pct", total.pct("rgf"))
	m.set("bc.share_pct", total.pct("bc"))
	m.set("sse.share_pct", total.pct("sse"))
	m.set("negf.unattributed_pct", unattributed)
	m.set("bc.cold_ms_iter0", float64(cold0Ns)/1e6/float64(n))
	m.set("obs.spans_per_iter", float64(spans)/float64(iters))
	m.note("traced: %d sequential solves, %d iterations, %d solver spans", n, iters, spans)
	m.note("traced: reconciliation — Σ IterStats.WallNs %.1f ms; Σ iter spans %.1f ms = rgf %.1f + bc %.1f + gf self %.1f + sse %.1f + uncovered %.1f ms",
		float64(iterWallNs)/1e6, float64(total.Wall)/1e6, float64(total.By["rgf"])/1e6, float64(total.By["bc"])/1e6,
		float64(total.By["gf"])/1e6, float64(total.By["sse"])/1e6, float64(total.By["iter"])/1e6)
	m.note("traced: shares of iteration wall — rgf %.1f%%  bc %.1f%%  gf self %.1f%%  sse %.1f%%; not covered by gf + sse spans %.2f%%",
		total.pct("rgf"), total.pct("bc"), total.pct("gf"), total.pct("sse"), unattributed)
}

// distributedShares folds rank 0's spans of each traced P=2 solve into
// the per-schedule accounting.
func distributedShares(m *metricSet, solves []solveOutcome) {
	for _, o := range solves {
		if o.Result == nil || o.Result.Spans == nil || o.Job.Config.Ranks == 0 {
			continue
		}
		r0 := spansOfRank(o.Result.Spans, 0)
		wins := windowsOf(r0)
		a := attribute(r0, wins)
		iters := float64(o.Result.Iterations)
		var waitNs, taskNs, fenceNs int64
		var tasks, discards int
		for _, s := range r0 {
			switch {
			case s.Name == "pipeline/fence":
				fenceNs += s.Dur
			case s.Name == "pipeline/discard":
				discards++
			case s.Track >= 100:
				tasks++
				taskNs += s.Dur
			}
			if s.Track < 100 && (s.Cat == "exchange" || s.Cat == "reduce") {
				waitNs += s.Dur
			}
		}
		m.note("traced: %s rank 0 — %d windows %.1f ms: rgf %.1f%% bc %.1f%% sse %.1f%% exchange %.1f%% reduce %.1f%% task %.1f%% unattributed %.1f%%",
			o.Job.Name, len(wins), float64(a.Wall)/1e6, a.pct("rgf"), a.pct("bc"), a.pct("sse"),
			a.pct("exchange"), a.pct("reduce"), a.pct("task"), a.pct("iter"))
		switch o.Job.Name {
		case "p2/phases":
			m.set("dist.unattributed_pct", a.pct("iter"))
			m.set("comm.wait_ms_per_iter", float64(waitNs)/1e6/iters)
		case "p2/overlap":
			m.set("dist.overlap_unattributed_pct", a.pct("iter"))
			m.set("sdfg.tasks_per_iter", float64(tasks)/iters)
			workers := o.Resolved.Workers
			if workers == 0 {
				workers = 2 // the dist default
			}
			if a.Wall > 0 {
				m.set("sdfg.idle_pct", 100*(1-float64(taskNs)/(float64(workers)*float64(a.Wall))))
			}
		case "p2/pipeline":
			m.set("dist.pipeline_unattributed_pct", a.pct("iter"))
			m.set("sdfg.fence_stall_ms", float64(fenceNs)/1e6)
			m.set("sdfg.discarded_tasks", float64(discards))
		}
	}
}

// iterP50 is the median iteration wall of one run's telemetry, in ms.
func iterP50(trace []qt.IterStats) float64 {
	xs := make([]float64, len(trace))
	for i, st := range trace {
		xs[i] = float64(st.WallNs) / 1e6
	}
	return median(xs)
}

// distributedCounts reads the exact per-iteration counts and the
// per-schedule iteration medians off an untraced pass.
func distributedCounts(m *metricSet, solves []solveOutcome) (phasesMs float64) {
	p50 := func(o solveOutcome) float64 { return iterP50(o.Result.Trace) }
	var seqMs float64
	for _, o := range solves {
		if o.Result == nil {
			continue
		}
		res := o.Result
		iters := float64(res.Iterations)
		switch o.Job.Name {
		case "seq":
			seqMs = p50(o)
		case "p2/phases":
			phasesMs = p50(o)
			m.set("dist.phases_iter_ms_p50", phasesMs)
			if res.Comm != nil {
				m.set("comm.bytes_per_iter", float64(res.Comm.BytesSent)/iters)
				m.set("comm.msgs_per_iter", float64(res.Comm.Sends)/iters)
			}
			var mx, sum float64
			for _, l := range res.Load {
				w := float64(l.Pairs + l.Points)
				mx, sum = math.Max(mx, w), sum+w
			}
			if sum > 0 {
				m.set("dist.load_imbalance", mx/(sum/float64(len(res.Load))))
			}
		case "p2/overlap":
			m.set("dist.overlap_iter_ms_p50", p50(o))
			var comp, com int64
			for _, st := range res.Trace {
				comp, com = comp+st.ComputeNs, com+st.CommNs
			}
			m.set("dist.compute_ms_per_iter", float64(comp)/1e6/iters)
			m.set("dist.comm_ms_per_iter", float64(com)/1e6/iters)
		case "p2/pipeline":
			m.set("dist.pipeline_iter_ms_p50", p50(o))
			if res.Comm != nil {
				c := res.Comm.Collectives
				m.set("comm.collectives_per_iter", float64(c["Alltoallv"]+c["Allreduce"])/iters)
			}
		case "p2/mixed":
			m.set("dist.mixed_iter_ms_p50", p50(o))
			var fb int64
			for _, st := range res.Trace {
				fb += st.FallbackBlocks
			}
			m.set("half.fallback_blocks_per_iter", float64(fb)/iters)
		}
		if res.Comm != nil {
			m.note("counts: %s — %d iterations, %.0f bytes/iter, collectives %v", o.Job.Name, res.Iterations,
				float64(res.Comm.BytesSent)/iters, res.Comm.Collectives)
		}
	}
	if seqMs > 0 && phasesMs > 0 {
		m.set("dist.vs_seq_ratio", phasesMs/seqMs)
	}
	return phasesMs
}
