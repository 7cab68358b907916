// Package plan is the execution plan of a distributed run and the cost
// model that prices plans. Rule resolves a plan request in closed form
// from the world size and GOMAXPROCS — one worker pool per rank, the
// pools together no larger than the process, at window depth 1 — and qt
// writes it into the run's configuration when it resolves an auto_plan
// request, so the plan is recorded in the content-addressed key without
// any run. The bitwise plan-invariance suites prove the plan cannot change
// a result, and the measured model error (the bench's plan rungs) shows
// the schedules do not separate on small hosts, so no search is made.
//
// The cost model is the measurement side: Calibrate runs a short traced
// probe and Predict scores a candidate in the repo's virtual-time model
// (internal/sdfg.Simulate — validated against the paper's Table 6 shape
// through cmd/paperbench).
//
// Calibration contract: the probe runs two self-consistent iterations
// of the phases schedule (the depth-1 window graph on one worker, so no
// node's span is inflated by a sibling) on a single rank with tracing
// enabled and no boundary store. The first iteration's point solves
// decimate every boundary; the second iteration's lookups are cache hits,
// and negf records each lookup as a "bc" span inside the solve that ran
// it, so the first span of a point is the cold cost and the second is
// warm.
// Per-point costs keep the minimum observed occurrence (noise-robust:
// contention only inflates a span) while the per-iteration aggregates
// (tile, residual, reduce) are averaged across both iterations — so the
// calibration describes the steady state of a cached run, plus the
// one-time cold cost. Costs are per-node nanoseconds; the prediction step
// scales them by each candidate's shard sizes. A calibration is only as
// good as the probe host: it is measured wall time, not a hardware model.
package plan

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/negf"
	"repro/internal/sdfg"
)

// Candidate is one execution plan: a schedule, its worker pool and its
// window depth — what Rule resolves and Predict scores.
type Candidate struct {
	Schedule      dist.Schedule
	Workers       int
	PipelineDepth int // 0 unless Schedule is SchedulePipeline
}

func (c Candidate) String() string {
	s := fmt.Sprintf("%s w=%d", c.Schedule, c.Workers)
	if c.Schedule == dist.SchedulePipeline {
		s += fmt.Sprintf(" d=%d", c.PipelineDepth)
	}
	return s
}

// Options says what to plan for.
type Options struct {
	Ranks int // world size the plan is for (required)
}

// Rule is the execution plan of a world of ranks ≥ 1 on this host: the
// depth-1 window over GOMAXPROCS ÷ ranks workers per rank, at least one,
// so the ranks' pools together never ask for more workers than the
// process has threads. One worker is the phases schedule, spelled with
// its worker count; more are the overlap schedule. The result is a
// function of the world size and GOMAXPROCS alone — no device, no
// measurement — so one host resolves one request to one plan.
func Rule(ranks int) Candidate {
	w := max(1, runtime.GOMAXPROCS(0)/ranks)
	if w == 1 {
		return Candidate{Schedule: dist.SchedulePhases, Workers: 1}
	}
	return Candidate{Schedule: dist.ScheduleOverlap, Workers: w}
}

// Choose returns the plan a run of o.Ranks ranks resolves to: Rule. The
// device is not read, since the rule needs none.
func Choose(_ *device.Device, o Options) (Candidate, error) {
	if o.Ranks < 1 {
		return Candidate{}, fmt.Errorf("plan: world size %d", o.Ranks)
	}
	return Rule(o.Ranks), nil
}

// Predict scores one candidate: the modeled steady-state makespan of one
// self-consistent iteration on the most-loaded rank, in nanoseconds of
// virtual time — sdfg.Simulate on a model of the per-rank window graph
// dist builds, at the window depth and pool size dist.Options.Validate
// resolves the candidate to. A candidate dist would refuse to run scores
// +Inf. A depth-1 window on one worker (SchedulePhases) is a strict
// FIFO — the GF phase computes, the exchange copies, the tile computes,
// the reduction copies — so it scores as the plain sum.
func Predict(p device.Params, ranks int, cal Calibration, c Candidate) float64 {
	o, err := dist.Options{Ranks: ranks, Schedule: c.Schedule, Workers: c.Workers, PipelineDepth: c.PipelineDepth}.Validate()
	if err != nil {
		return math.Inf(1)
	}
	nEl := ceilDiv(len(negf.AllPairs(p)), ranks)
	nPh := ceilDiv(len(negf.AllPhononPoints(p)), ranks)
	elNs := cal.BCWarmNs + cal.ElNs
	phNs := cal.PhBCWarmNs + cal.PhNs
	exchNs := model.DaCeCommVolume(p, 1, ranks) / float64(ranks) * cal.CopyNsPerByte
	tileNs := cal.TileNs * tileShare(p, 1, ranks)

	g := sdfg.New()
	var release []sdfg.NodeID
	for k := 0; k < o.PipelineDepth; k++ {
		release = addIteration(g, release, nEl, nPh, elNs, phNs, exchNs, tileNs, cal)
	}
	return sdfg.Simulate(g, o.Workers) / float64(o.PipelineDepth)
}

// tileShare is the fraction of a full-grid SSE tile that the slowest rank
// of a ta×te split executes. A tile computes its transients on its halo
// window — its NE/TE owned energies plus Nω on either side, clipped to the
// grid — for its 1/Ta of the atoms, so the cost follows the window the
// exchange ships (DaCeLayout.EnergyHalo), not 1/ranks.
func tileShare(p device.Params, ta, te int) float64 {
	// Grid geometry only; the atom-set helpers need NewDaCeLayout's device.
	l := decomp.DaCeLayout{Ta: ta, TE: te, Na: p.Na, NE: p.NE, Nomega: p.Nomega}
	widest := 0
	for t := 0; t < te; t++ {
		lo, hi := l.EnergyHalo(t)
		widest = max(widest, hi-lo)
	}
	return float64(widest) / float64(p.NE) / float64(ta)
}

// addIteration appends one iteration's model nodes to g and returns the
// release set the next iteration's solves must wait on (exchanged +
// mixed Σ, i.e. the tile and the residual mixing work). The observable
// reduction hangs off the side: nothing within the window depends on it,
// which is exactly the latency the pipelined schedule hides.
func addIteration(g *sdfg.Graph, after []sdfg.NodeID, nEl, nPh int, elNs, phNs, exchNs, tileNs float64, cal Calibration) []sdfg.NodeID {
	solves := make([]sdfg.NodeID, 0, nEl+nPh)
	for i := 0; i < nEl; i++ {
		solves = append(solves, g.Add(sdfg.Spec{Label: "el", Cost: elNs}, after...))
	}
	for j := 0; j < nPh; j++ {
		solves = append(solves, g.Add(sdfg.Spec{Label: "ph", Cost: phNs}, after...))
	}
	exch := g.Add(sdfg.Spec{Label: "exch", Kind: sdfg.Comm, Cost: exchNs}, solves...)
	tile := g.Add(sdfg.Spec{Label: "tile", Cost: tileNs}, exch)
	mix := g.Add(sdfg.Spec{Label: "mix", Cost: cal.MiscNs}, tile)
	g.Add(sdfg.Spec{Label: "reduce", Kind: sdfg.Comm, Cost: cal.ReduceNs}, tile, mix)
	return []sdfg.NodeID{mix}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
