package negf

import (
	"fmt"

	"repro/internal/blocktri"
	"repro/internal/device"
	"repro/internal/linalg"
)

// Shard is the GF-phase share of one owner — the sequential solver (every
// point) or one distributed rank (its block of the grids): the owned
// electron (kz, E) pairs and phonon (qz, ω) points in global order, plus
// the H(kz) and Φ(qz) those points need. Neither operator depends on the
// energy or the self-consistent state, so each owned momentum is
// assembled once for the whole run.
type Shard struct {
	Pairs  [][2]int // (ik, ie)
	Points [][2]int // (iq, m), m ∈ [1, Nω]

	hams, dyns []*blocktri.Matrix // by ik / iq; nil where no owned point needs one
}

// NewShard assembles the operators for the listed points of dev.
func NewShard(dev *device.Device, pairs, points [][2]int) *Shard {
	sh := &Shard{
		Pairs: pairs, Points: points,
		hams: make([]*blocktri.Matrix, dev.P.Nkz),
		dyns: make([]*blocktri.Matrix, dev.P.Nqz()),
	}
	for _, pr := range pairs {
		if sh.hams[pr[0]] == nil {
			sh.hams[pr[0]] = dev.Hamiltonian(pr[0])
		}
	}
	for _, pt := range points {
		if sh.dyns[pt[0]] == nil {
			sh.dyns[pt[0]] = dev.Dynamical(pt[0])
		}
	}
	return sh
}

// PointResults are the result slots of one sweep over a shard: El[i]
// belongs to Pairs[i], Ph[j] to Points[j]. Solves land in their own slot
// in any order; the fold then reads the slots front to back, which is
// what makes the accumulated observables independent of scheduling.
type PointResults struct {
	El []*ElectronPointResult
	Ph []*PhononPointResult
}

// NewResults allocates empty slots for one sweep of the shard.
func (sh *Shard) NewResults() *PointResults {
	return &PointResults{
		El: make([]*ElectronPointResult, len(sh.Pairs)),
		Ph: make([]*PhononPointResult, len(sh.Points)),
	}
}

func electronErr(pr [2]int, err error) error {
	if err != nil {
		err = fmt.Errorf("point (kz=%d, E=%d): %w", pr[0], pr[1], err)
	}
	return err
}

func phononErr(pt [2]int, err error) error {
	if err != nil {
		err = fmt.Errorf("point (qz=%d, ω=%d): %w", pt[0], pt[1], err)
	}
	return err
}

// SolveElectron solves electron pair i of the shard into its slot.
func (ps *PointSolver) SolveElectron(sh *Shard, i int, out *PointResults) error {
	pr := sh.Pairs[i]
	r, err := ps.SolveElectronPoint(sh.hams[pr[0]], pr[0], pr[1])
	out.El[i] = r
	return electronErr(pr, err)
}

// SolvePhonon solves phonon point j of the shard into its slot.
func (ps *PointSolver) SolvePhonon(sh *Shard, j int, out *PointResults) error {
	pt := sh.Points[j]
	r, err := ps.SolvePhononPoint(sh.dyns[pt[0]], pt[0], pt[1])
	out.Ph[j] = r
	return phononErr(pt, err)
}

// Sweep runs the GF phase of the shard: every electron pair, then every
// phonon point, each solved into its slot of out by up to workers
// goroutines (1 = serially on the caller's) — the natural parallelism of
// the GF phase. It returns the first failure; points not yet started when
// it lands are skipped.
func (ps *PointSolver) Sweep(sh *Shard, workers int, out *PointResults) error {
	electron := func(i int) error { return ps.SolveElectron(sh, i, out) }
	phonon := func(j int) error { return ps.SolvePhonon(sh, j, out) }
	if err := linalg.ParallelFor(len(sh.Pairs), workers, func() func(int) error { return electron }); err != nil {
		return err
	}
	return linalg.ParallelFor(len(sh.Points), workers, func() func(int) error { return phonon })
}

// Fold accumulates a finished sweep into o, in global point order: the
// per-point observables from the slots and the two collision integrals
// over the shard's lists. Over all points o then holds the observables of
// the GF phase; over a rank's shard, its additive share of them.
func (ps *PointSolver) Fold(sh *Shard, res *PointResults, o *Observables) {
	p := ps.Dev.P
	o.Reset(p)
	o.AddElectron(p, res.El...)
	o.AddPhonon(p, res.Ph...)
	o.ElectronEnergyLoss = ps.ElectronCollisionSum(sh.Pairs)
	o.PhononEnergyGain = ps.PhononCollisionSum(sh.Points)
}
