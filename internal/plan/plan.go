package plan

import (
	"fmt"
	"math"

	"repro/internal/bc"
	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/negf"
	"repro/internal/sdfg"
)

// Candidate is one point of the plan search space.
type Candidate struct {
	Schedule      dist.Schedule
	Workers       int
	PipelineDepth int // 0 unless Schedule is SchedulePipeline
}

// Plan is a chosen execution plan: the argmin candidate and the
// virtual-time score the choice was based on.
type Plan struct {
	Candidate
	// PredictedNs is the modeled steady-state makespan of ONE
	// self-consistent iteration on the slowest rank.
	PredictedNs float64
}

func (p Plan) String() string {
	s := fmt.Sprintf("%s w=%d", p.Schedule, p.Workers)
	if p.Schedule == dist.SchedulePipeline {
		s += fmt.Sprintf(" d=%d", p.PipelineDepth)
	}
	return s
}

// Options says what to plan for.
type Options struct {
	Ranks int // world size the plan is for (required)
	// Store, when non-nil, is the boundary store the calibration probe
	// solves over (dist.Options.Store): what the probe decimates the
	// planned run finds, and the other way round. Nil means no sharing.
	Store *bc.Store
}

// The enumerated search space: per-rank worker pool sizes, and window
// depths (1 is the overlap schedule).
var (
	poolSizes = [...]int{1, 2, 4}
	depths    = [...]int{1, 2, 3}
)

// candidates enumerates the schedule search space: the serial phases
// baseline, then the window task graph per depth × worker count. Depth 1
// is spelled ScheduleOverlap — the name plans, reports and -schedule
// flags already use for it — except on one worker, where it is the
// phases baseline itself and is not listed twice. Shallower windows come
// first, so a tie resolves to the simpler schedule.
func candidates() []Candidate {
	cands := []Candidate{{Schedule: dist.SchedulePhases, Workers: 1}}
	for _, d := range depths {
		for _, w := range poolSizes {
			c := Candidate{Schedule: dist.SchedulePipeline, Workers: w, PipelineDepth: d}
			if d == 1 {
				if w == 1 {
					continue // that execution is the phases baseline above
				}
				c = Candidate{Schedule: dist.ScheduleOverlap, Workers: w}
			}
			cands = append(cands, c)
		}
	}
	return cands
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

// Choose calibrates, scores every candidate and returns the argmin plan.
// Ties (within 1%) resolve toward the earlier — simpler — candidate, so
// phases beats overlap beats a deeper window when the model sees no
// benefit.
func Choose(dev *device.Device, o Options) (Plan, error) {
	if o.Ranks < 1 {
		return Plan{}, fmt.Errorf("plan: world size %d", o.Ranks)
	}
	cal, err := calibrate(dev, o.Store)
	if err != nil {
		return Plan{}, err
	}
	return chooseWith(dev.P, o.Ranks, cal, candidates()), nil
}

func chooseWith(p device.Params, ranks int, cal Calibration, cands []Candidate) Plan {
	best, bestNs := Candidate{}, 0.0
	for i, c := range cands {
		ns := Predict(p, ranks, cal, c)
		if i == 0 || ns < bestNs*0.99 {
			best, bestNs = c, ns
		}
	}
	return Plan{Candidate: best, PredictedNs: bestNs}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
