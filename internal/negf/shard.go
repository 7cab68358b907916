package negf

import (
	"fmt"

	"repro/internal/blocktri"
	"repro/internal/device"
	"repro/internal/linalg"
)

// Shard is the GF-phase share of one owner — the Solver kit (every
// point) or one distributed rank (its block of the grids): the owned
// electron (kz, E) pairs and phonon (qz, ω) points in global order, plus
// the H(kz) and Φ(qz) those points need. Neither operator depends on the
// energy or the self-consistent state, so each owned momentum is
// assembled once for the whole run.
type Shard struct {
	Pairs  [][2]int // (ik, ie)
	Points [][2]int // (iq, m), m ∈ [1, Nω]

	p          device.Params      // sizes the result slots
	hams, dyns []*blocktri.Matrix // by ik / iq; nil where no owned point needs one
}

// NewShard assembles the operators for the listed points of dev.
func NewShard(dev *device.Device, pairs, points [][2]int) *Shard {
	sh := &Shard{
		Pairs: pairs, Points: points, p: dev.P,
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

// PointResults are the result slots of a sweep over a shard: El[i]
// belongs to Pairs[i], Ph[j] to Points[j]. Solves land in their own slot
// in any order, overwriting what an earlier sweep left there; the fold
// then reads the slots front to back, which is what makes the
// accumulated observables independent of scheduling.
type PointResults struct {
	El []*ElectronPointResult
	Ph []*PhononPointResult
}

// NewResults allocates the slots for the sweeps of the shard, each with
// the storage its point solve writes into.
func (sh *Shard) NewResults() *PointResults {
	res := &PointResults{
		El: make([]*ElectronPointResult, len(sh.Pairs)),
		Ph: make([]*PhononPointResult, len(sh.Points)),
	}
	for i := range res.El {
		res.El[i] = newElectronResult(sh.p)
	}
	for j := range res.Ph {
		res.Ph[j] = newPhononResult(sh.p)
	}
	return res
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

// whole reports whether the shard is the whole grid — the shard whose
// state planes are a full-grid tensor's. Its points are listed in global
// order, so a full count is every point in that order.
func (sh *Shard) whole() bool {
	p := sh.p
	return len(sh.Pairs) == p.Nkz*p.NE && len(sh.Points) == p.Nqz()*p.Nomega
}

// SolveElectron solves electron pair i of the solver's shard into its
// slot, on worker w's scratch.
func (ps *PointSolver) SolveElectron(w, i int, out *PointResults) error {
	pr := ps.shard.Pairs[i]
	return electronErr(pr, ps.solveElectronInto(w, ps.shard.hams[pr[0]], i, pr[0], pr[1], out.El[i]))
}

// SolvePhonon solves phonon point j of the solver's shard into its slot,
// on worker w's scratch.
func (ps *PointSolver) SolvePhonon(w, j int, out *PointResults) error {
	pt := ps.shard.Points[j]
	return phononErr(pt, ps.solvePhononInto(w, ps.shard.dyns[pt[0]], j, pt[0], pt[1], out.Ph[j]))
}

// sweep runs the GF phase of the solver's shard: every electron pair,
// then every phonon point, each solved into its slot of out on a pool of
// one worker per scratch — the natural parallelism of the GF phase. It
// returns the first failure; points not yet started when it lands are
// skipped.
func (ps *PointSolver) sweep(out *PointResults) error {
	var pool linalg.Pool
	workers := len(ps.scratch)
	err := pool.Run(len(ps.shard.Pairs), workers, func(w int) func(int) error {
		return func(i int) error { return ps.SolveElectron(w, i, out) }
	})
	if err != nil {
		return err
	}
	return pool.Run(len(ps.shard.Points), workers, func(w int) func(int) error {
		return func(j int) error { return ps.SolvePhonon(w, j, out) }
	})
}

// fold accumulates a finished sweep into o, in global point order: the
// per-point observables from the slots and the two collision integrals
// over the shard. Over all points o then holds the observables of the GF
// phase; over a rank's shard, its additive share of them.
func (ps *PointSolver) fold(res *PointResults, o *Observables) {
	p := ps.Dev.P
	o.Reset(p)
	o.AddElectron(p, res.El...)
	o.AddPhonon(p, res.Ph...)
	o.ElectronEnergyLoss = ps.ElectronCollisionSum()
	o.PhononEnergyGain = ps.PhononCollisionSum()
}
