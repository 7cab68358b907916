// Package ensemble drives N-realization disorder studies through the qt
// facade — the workload layer the paper's target regime actually runs:
// a realistic device's observables (current, DOS) only mean anything as
// averages over many disorder realizations of one device profile.
//
// A Study names a configuration over a profiled qt.Spec, a realization
// count and a base seed; member i solves it with DisorderSeed = BaseSeed + i.
// Members run concurrently, at most Study.Workers at a time (GOMAXPROCS
// by default; the study is the outer loop, so it alone decides the count —
// the kernels inside a member never spawn), stream their per-iteration
// IterStats through OnIter, and reduce Welford-style into the
// report.Ensemble schema: running mean/variance and the 95% confidence
// interval of the terminal current and of the DOS spectrum.
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
	// Workers bounds how many members solve concurrently. Zero means
	// min(Members, GOMAXPROCS), read when Run is called.
	Workers int
	// Options apply to every member's simulation on top of Config — the
	// place for what a RunConfig cannot say (an explicit zero bias, an
	// injected kernel).
	Options []qt.Option
	// WarmStart seeds members 1..N−1 from member 0's converged Σ≷/Π≷
	// state (realizations of one profile share tensor shapes, so a
	// sibling's fixed point is a valid and close initial guess). Member 0
	// solves cold first; it is a no-op for distributed members, which
	// capture no final state.
	WarmStart bool

	// OnMember, when set, is called once per member as it finishes, in
	// completion order (serialized by the study).
	OnMember func(Member)
	// OnIter, when set, streams every member's per-iteration telemetry,
	// tagged with the member index. Members run concurrently; calls for
	// different members interleave (serialized by the study).
	OnIter func(member int, st qt.IterStats)
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

// workers resolves the concurrency bound.
func (st *Study) workers() int {
	w := st.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > st.Members {
		w = st.Members
	}
	if w < 1 {
		w = 1
	}
	return w
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

	var mu sync.Mutex // serializes OnMember/OnIter across members
	next := 0
	var warm *qt.SigmaState
	if st.WarmStart && st.Members > 1 {
		// Member 0 solves cold, alone, and donates its final state.
		st.solve(ctx, &members[0], &mu, nil)
		if r := members[0].Result; r != nil {
			warm = r.FinalState
		}
		next = 1
	}

	sem := make(chan struct{}, st.workers())
	var wg sync.WaitGroup
	for i := next; i < st.Members; i++ {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			defer func() { <-sem }()
			st.solve(ctx, m, &mu, warm)
		}(&members[i])
	}
	wg.Wait()

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
	for it := range run.Stats() {
		if st.OnIter != nil {
			mu.Lock()
			st.OnIter(m.Index, it)
			mu.Unlock()
		}
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
