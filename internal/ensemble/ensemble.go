// Package ensemble drives N-realization disorder studies through the qt
// facade — the workload layer the paper's target regime actually runs:
// a realistic device's observables (current, DOS) only mean anything as
// averages over many disorder realizations of one device profile.
//
// A Study names a configuration over a profiled qt.Spec, a realization
// count and a base seed; member i solves it with DisorderSeed = BaseSeed + i.
// Member 0 solves first, alone, and seeds members 1..N−1 with its
// converged Σ≷/Π≷ state; those then run concurrently through
// linalg.ParallelFor, at most GOMAXPROCS at a time. The members reduce
// Welford-style into the report.Ensemble schema: running mean/variance
// and the 95% confidence interval of the terminal current and of the DOS
// spectrum.
//
// The reduction is deterministic: members are folded in index order
// after all have finished, so the same member results always produce
// the bitwise-same statistics regardless of completion order. The qtd
// service mirrors this driver over HTTP (POST /v1/ensembles), where the
// (profile, seed) content keys additionally let duplicate realizations
// hit the result cache and sibling realizations warm-start.
package ensemble

import (
	"context"
	"fmt"
	"runtime"
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
	// Options apply to every member's simulation on top of Config — the
	// place for what a RunConfig cannot say (an explicit zero bias).
	Options []qt.Option

	// OnMember, when set, is called once per member as it finishes, in
	// completion order (serialized by the study).
	OnMember func(Member)
}

// Member is one realization's outcome.
type Member struct {
	Index  int
	Seed   uint64
	Result *qt.Result // nil when Err is set
	Err    error
	WallNs int64
}

// Result is a finished study: every member in index order plus the
// reduced report.
type Result struct {
	Members []Member
	Report  *report.Ensemble
}

// MemberSpec returns the spec member i solves: the base spec with the
// member's derived disorder seed — the one member-seed rule. qtd's study
// runner derives its members through it too, so a study submitted there
// and one run here solve byte-identical configurations.
func (st *Study) MemberSpec(i int) qt.Spec {
	s := st.Config.Spec
	s.DisorderSeed = st.BaseSeed + uint64(i)
	return s
}

// validate checks the study shape before any member runs.
func (st *Study) validate() error {
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
	if err := st.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	members := make([]Member, st.Members)
	for i := range members {
		members[i] = Member{Index: i, Seed: st.MemberSpec(i).DisorderSeed}
	}

	var mu sync.Mutex // serializes OnMember across members
	// Member 0 solves cold, alone, and donates its final state:
	// realizations of one profile share tensor shapes, so a sibling's
	// fixed point is a valid and close initial guess. Members with ranks
	// and a cancelled member 0 capture none, and the rest then start cold.
	st.solve(ctx, &members[0], &mu, nil)
	var warm *qt.SigmaState
	if r := members[0].Result; r != nil {
		warm = r.FinalState
	}
	// A member's failure is its own row, never the pool's error.
	_ = linalg.ParallelFor(st.Members-1, runtime.GOMAXPROCS(0), func() func(int) error {
		return func(i int) error {
			if ctx.Err() == nil {
				st.solve(ctx, &members[i+1], &mu, warm)
			}
			return nil
		}
	})

	dev, err := st.Config.Spec.Build()
	if err != nil {
		return nil, err
	}
	rep := Reduce(dev, members)
	rep.BaseSeed = st.BaseSeed
	rep.WallNs = time.Since(start).Nanoseconds()
	return &Result{Members: members, Report: rep}, ctx.Err()
}

// solve runs one member to completion, filling its row.
func (st *Study) solve(ctx context.Context, m *Member, mu *sync.Mutex, warm *qt.SigmaState) {
	begin := time.Now()
	opts := append([]qt.Option{}, st.Options...)
	if warm != nil {
		// The donated state seeds many concurrent solvers; each copies it
		// into its own tensors at Start.
		opts = append(opts, qt.WithWarmStart(warm))
	}
	rc := st.Config
	rc.Spec = st.MemberSpec(m.Index)
	sim, err := qt.NewFromConfig(rc, opts...)
	if err != nil {
		m.Err = err
		st.notify(m, mu)
		return
	}
	run, err := sim.Start(ctx)
	if err != nil {
		m.Err = err
		st.notify(m, mu)
		return
	}
	res, err := run.Wait()
	m.Result = res
	// Cancellation still carries the partial result; a hard solver error
	// voids only this member.
	if err != nil && res == nil {
		m.Err = err
	}
	m.WallNs = time.Since(begin).Nanoseconds()
	st.notify(m, mu)
}

func (st *Study) notify(m *Member, mu *sync.Mutex) {
	if st.OnMember == nil {
		return
	}
	mu.Lock()
	st.OnMember(*m)
	mu.Unlock()
}
