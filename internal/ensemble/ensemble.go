// Package ensemble drives N-realization disorder studies through the qt
// facade — the workload layer the paper's target regime actually runs:
// a realistic device's observables (current, DOS) only mean anything as
// averages over many disorder realizations of one device profile.
//
// A Study names a configuration over a profiled qt.Spec, a realization
// count and a base seed; member i solves it with DisorderSeed = BaseSeed + i.
// Member 0 solves first, alone and cold, and seeds members 1..N−1 with
// its converged Σ≷/Π≷ state; those then run concurrently through
// linalg.ParallelFor, at most GOMAXPROCS at a time. A seeded member that
// ends unconverged is solved once more, cold. The members reduce
// Welford-style into the report.Ensemble schema: running mean/variance
// and the 95% confidence interval of the terminal current and of the DOS
// spectrum, over the converged members.
//
// Study.Run is the one study driver. It solves each member through an
// Executor: Local in-process (qtsim, examples/ensemble), the daemon's
// submit path in the qtd service (POST /v1/ensembles), where a member's
// content key additionally lets a duplicate realization hit the result
// cache. Either way a member's seed is the one this package passes,
// never one the executor picks.
//
// The reduction is deterministic: members are folded in index order
// after all have finished, so the same member results always produce
// the bitwise-same statistics regardless of completion order.
package ensemble

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/qt"
	"repro/internal/report"
)

// Study is an N-realization disorder study over one profiled spec.
type Study struct {
	// Config is the base experiment, knobs included — what
	// qt.NewFromConfig takes. Its Spec must carry a Profile (an ensemble
	// over a clean device is N copies of one run).
	Config qt.RunConfig
	// Members is the realization count N.
	Members int
	// BaseSeed seeds the first realization; member i draws its disorder
	// from BaseSeed + i.
	BaseSeed uint64
	// Exec solves each member; nil is Local().
	Exec Executor

	// OnMember, when set, is called once per member as it finishes, in
	// completion order (serialized by the study).
	OnMember func(Member)
}

// Executor solves one member's configuration to completion, warm-started
// from seed (nil: cold), and returns its result with the lineage of the
// run that produced it. A nil error comes with a result; a cancelled
// solve returns its partial result, if any, with an error. A result
// that did not converge is not an error.
type Executor func(ctx context.Context, rc qt.RunConfig, seed *qt.SigmaState) (*qt.Result, Lineage, error)

// Lineage names the run that answered a member where the executor keeps
// runs (the qtd registry): its id, and whether the result cache answered
// it. Local leaves it zero.
type Lineage struct {
	RunID    string
	CacheHit bool
}

// Local is the in-process executor: a member is one qt simulation of its
// configuration, with opts on top — what a RunConfig cannot say, such as
// an explicit zero bias.
func Local(opts ...qt.Option) Executor {
	return func(ctx context.Context, rc qt.RunConfig, seed *qt.SigmaState) (*qt.Result, Lineage, error) {
		o := opts
		if seed != nil {
			// The donated state seeds many concurrent solvers; each copies
			// it into its own tensors at Start.
			o = append(slices.Clip(opts), qt.WithWarmStart(seed))
		}
		sim, err := qt.NewFromConfig(rc, o...)
		if err != nil {
			return nil, Lineage{}, err
		}
		run, err := sim.Start(ctx)
		if err != nil {
			return nil, Lineage{}, err
		}
		res, err := run.Wait()
		return res, Lineage{}, err
	}
}

// Member is one realization's outcome.
type Member struct {
	Index int
	Seed  uint64
	// Start is how the member's final run began (report.StartCold,
	// StartWarm or StartColdRetry); "" when it never ran.
	Start string
	// Result may be partial when Err is set (a cancelled solve), and is
	// nil when the member never produced one.
	Result *qt.Result
	Err    error
	WallNs int64
	Lineage
}

// Row is the member's report row.
func (m Member) Row() report.MemberRow {
	row := report.MemberRow{
		Index: m.Index, Seed: m.Seed, RunID: m.RunID,
		CacheHit: m.CacheHit, Start: m.Start, WallNs: m.WallNs,
	}
	if r := m.Result; r != nil {
		row.Current, row.Iterations, row.Converged = r.Current, r.Iterations, r.Converged
	}
	return row
}

// Result is a finished study: every member in index order plus the
// reduced report.
type Result struct {
	Members []Member
	Report  *report.Ensemble
}

// memberSpec returns the spec member i solves: the base spec with the
// member's derived disorder seed — the one member-seed rule.
func (st *Study) memberSpec(i int) qt.Spec {
	s := st.Config.Spec
	s.DisorderSeed = st.BaseSeed + uint64(i)
	return s
}

// Validate checks the study shape before any member runs.
func (st *Study) Validate() error {
	if st.Members <= 0 {
		return fmt.Errorf("ensemble: need at least one member (got %d)", st.Members)
	}
	if st.Config.Spec.Profile == nil {
		return fmt.Errorf("ensemble: spec has no profile: an ensemble over a clean device is %d copies of one run", st.Members)
	}
	return nil
}

// Run executes the study. The context cancels between self-consistent
// iterations of the running members and skips unstarted ones; the
// completed members are reduced and returned alongside the context's
// error. A member's solver error is recorded on its Member row (and the
// member excluded from the reduction), not escalated — one diverged
// realization must not void its N−1 siblings.
func (st *Study) Run(ctx context.Context) (*Result, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	exec := st.Exec
	if exec == nil {
		exec = Local()
	}
	start := time.Now()
	members := make([]Member, st.Members)
	for i := range members {
		members[i] = Member{Index: i, Seed: st.memberSpec(i).DisorderSeed}
	}

	var mu sync.Mutex // serializes OnMember across members
	// Member 0 solves cold, alone, and donates its final state:
	// realizations of one profile share tensor shapes, so a sibling's
	// fixed point is a valid and close initial guess. Members with ranks
	// and a cancelled member 0 capture none, and the rest then start cold.
	st.solve(ctx, exec, &members[0], &mu, nil)
	var warm *qt.SigmaState
	if r := members[0].Result; r != nil {
		warm = r.FinalState
	}
	// A member's failure is its own row, never the pool's error.
	_ = linalg.ParallelFor(st.Members-1, runtime.GOMAXPROCS(0), func() func(int) error {
		return func(i int) error {
			if ctx.Err() == nil {
				st.solve(ctx, exec, &members[i+1], &mu, warm)
			}
			return nil
		}
	})

	dev, err := st.Config.Spec.Build()
	if err != nil {
		return nil, err
	}
	rep := reduce(dev, members)
	rep.BaseSeed = st.BaseSeed
	rep.WallNs = time.Since(start).Nanoseconds()
	return &Result{Members: members, Report: rep}, ctx.Err()
}

// solve runs one member to completion, filling its row: from warm when
// it is set, and once more cold when that run ends unconverged — a
// sibling's fixed point can lead a realization astray where a cold
// start converges.
func (st *Study) solve(ctx context.Context, exec Executor, m *Member, mu *sync.Mutex, warm *qt.SigmaState) {
	begin := time.Now()
	rc := st.Config
	rc.Spec = st.memberSpec(m.Index)
	m.Start = report.StartCold
	if warm != nil {
		m.Start = report.StartWarm
	}
	m.Result, m.Lineage, m.Err = exec(ctx, rc, warm)
	if warm != nil && m.Err == nil && !m.Result.Converged && ctx.Err() == nil {
		m.Start = report.StartColdRetry
		m.Result, m.Lineage, m.Err = exec(ctx, rc, nil)
	}
	m.WallNs = time.Since(begin).Nanoseconds()
	if st.OnMember != nil {
		mu.Lock()
		st.OnMember(*m)
		mu.Unlock()
	}
}
