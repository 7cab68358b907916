package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ensemble"
	"repro/internal/qt"
	"repro/internal/report"
)

// maxStudyMembers bounds one study's realization axis: a study is one
// request minting up to this many runs against the shared slots.
const maxStudyMembers = 256

// studyRequest is the POST /v1/ensembles body: the base configuration
// plus the realization axis. Member i runs Config with
// spec.disorder_seed = BaseSeed + i, so sibling members share a WarmKey
// family (warm-start donors) while keying distinct cache artifacts.
type studyRequest struct {
	Tenant   string       `json:"tenant"`
	Priority int          `json:"priority"`
	Members  int          `json:"members"`
	BaseSeed uint64       `json:"base_seed"`
	Config   qt.RunConfig `json:"config"`
}

// studyRun is the live handle of an executing study: member-completion
// events fan out to subscribed SSE streams through its feed, whose done
// closes when the study record reached its terminal state.
type studyRun struct {
	id     string
	tenant string

	ctx    context.Context
	cancel context.CancelFunc

	*feed[report.MemberRow]
}

// submitStudy validates and launches one ensemble study. The returned
// handle streams member completions; the study executes detached on its
// own goroutine, fanning members through the regular submit path (so
// duplicate realizations hit the result cache and every member is a
// first-class registry run with study lineage).
func (s *Server) submitStudy(req studyRequest) (studyRecord, *studyRun, error) {
	if req.Members <= 0 || req.Members > maxStudyMembers {
		return studyRecord{}, nil, fmt.Errorf("members must be in [1, %d] (got %d)", maxStudyMembers, req.Members)
	}
	if req.Config.Spec.Profile == nil {
		return studyRecord{}, nil, fmt.Errorf("spec has no profile: an ensemble over a clean device is %d copies of one run", req.Members)
	}
	sim, err := qt.NewFromConfig(req.Config)
	if err != nil {
		return studyRecord{}, nil, err
	}
	rec := studyRecord{
		ID: s.reg.newStudyID(), Tenant: req.Tenant, Priority: req.Priority,
		Config: sim.Config(), Members: req.Members, BaseSeed: req.BaseSeed,
		Status: StatusQueued, Submitted: time.Now().UTC(),
	}
	if err := s.reg.putStudy(rec); err != nil {
		return studyRecord{}, nil, err
	}
	st := &studyRun{
		id: rec.ID, tenant: rec.Tenant,
		feed: newFeed[report.MemberRow](rec.Members),
	}
	st.ctx, st.cancel = context.WithCancel(s.ctx)
	s.mu.Lock()
	s.studies[st.id] = st
	s.mu.Unlock()
	s.studyWg.Add(1)
	go s.runStudy(st, rec)
	s.log.Info("study admitted", "study", rec.ID, "tenant", rec.Tenant, "members", rec.Members)
	return rec, st, nil
}

func (s *Server) studyByID(id string) (*studyRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.studies[id]
	return st, ok
}

func (s *Server) removeStudy(id string) {
	s.mu.Lock()
	delete(s.studies, id)
	s.mu.Unlock()
}

// cancelStudy cancels a running study: member submission stops and
// in-flight member runs are cancelled. Returns the record and whether
// the id was known.
func (s *Server) cancelStudy(id string) (studyRecord, bool) {
	if st, live := s.studyByID(id); live {
		st.cancel()
	}
	return s.reg.getStudy(id)
}

// memberOutcome is one member's terminal state as the runner saw it.
type memberOutcome struct {
	rec Record     // final registry record (zero if never admitted)
	res *qt.Result // full result when available (solved or still cached)
	err error      // admission error / cancellation before admission
}

// runStudy executes one study: admit every member through the regular
// submit path (content-addressed fast path included), wait for them,
// reduce in member-index order, finalize the study record.
func (s *Server) runStudy(st *studyRun, rec studyRecord) {
	defer s.studyWg.Done()
	defer st.markDone()
	defer s.removeStudy(st.id)

	start := time.Now()
	rec.Status = StatusRunning
	rec.Started = time.Now().UTC()
	rec.MemberRuns = make([]string, rec.Members)
	s.reg.putStudy(rec)

	// Members follow ensemble's seed rule, so a study submitted here and
	// one run in-process solve the same configurations.
	study := ensemble.Study{Config: rec.Config, BaseSeed: rec.BaseSeed}
	seed := func(i int) uint64 { return study.MemberSpec(i).DisorderSeed }

	outcomes := make([]memberOutcome, rec.Members)
	var mu sync.Mutex // guards rec progress counters + PutStudy ordering
	var wg sync.WaitGroup

	// Cancellation watcher: a cancelled study cancels its in-flight
	// member runs (queued ones are finalized immediately, running ones
	// stop between iterations).
	go func() {
		select {
		case <-st.ctx.Done():
			mu.Lock()
			ids := append([]string(nil), rec.MemberRuns...)
			mu.Unlock()
			for _, id := range ids {
				if id != "" {
					s.cancelRun(id)
				}
			}
		case <-st.done:
		}
	}()

	// finish folds one member's terminal record into the study progress
	// and publishes its completion event (called in completion order).
	finish := func(i int, out memberOutcome) {
		mu.Lock()
		outcomes[i] = out
		rec.DoneMembers++
		if out.rec.CacheHit {
			rec.CacheHits++
		}
		if out.rec.WarmStart {
			rec.WarmStarts++
		}
		progress := rec
		mu.Unlock()
		s.reg.putStudy(progress)
		s.met.ensembleMembers.Inc()
		st.publish(report.MemberRow{
			Index: i, Seed: seed(i), RunID: out.rec.ID,
			Current: out.rec.Current, Iterations: out.rec.Iterations,
			Converged: out.rec.Converged,
			CacheHit:  out.rec.CacheHit, WarmStart: out.rec.WarmStart,
			WallNs: out.rec.WallNs,
		})
	}

	for i := 0; i < rec.Members; i++ {
		if st.ctx.Err() != nil {
			outcomes[i] = memberOutcome{err: st.ctx.Err()}
			continue
		}
		mrc := rec.Config
		mrc.Spec = study.MemberSpec(i)

		var mrec Record
		var j *job
		var err error
		for {
			mrec, j, err = s.submit(rec.Tenant, rec.Priority, mrc, rec.ID)
			if !errors.Is(err, errQueueFull) {
				break
			}
			// Backpressure: the study yields until a queue slot frees.
			select {
			case <-st.ctx.Done():
				err = st.ctx.Err()
			case <-time.After(25 * time.Millisecond):
				continue
			}
			break
		}
		if err != nil {
			finish(i, memberOutcome{err: err})
			continue
		}
		mu.Lock()
		rec.MemberRuns[i] = mrec.ID
		mu.Unlock()
		if st.ctx.Err() != nil && j != nil {
			// The watcher snapshotted MemberRuns before this admission;
			// cancel the straggler ourselves.
			s.cancelRun(mrec.ID)
		}

		if j == nil {
			// Content-addressed fast path: no slot consumed. The full
			// result (with observables for the DOS reduction) is still in
			// the cache under the member's identity key unless it was
			// evicted since submit looked.
			out := memberOutcome{rec: mrec}
			if e, ok := s.cache.peek(mrec.Key); ok {
				out.res = e.Result
			}
			finish(i, out)
			continue
		}
		wg.Add(1)
		go func(i int, j *job) {
			defer wg.Done()
			<-j.done
			final, _ := s.reg.get(j.id)
			finish(i, memberOutcome{rec: final, res: j.result})
		}(i, j)
	}
	wg.Wait()

	// Reduce in member-index order — deterministic regardless of the
	// completion order the members finished in.
	members := make([]ensemble.Member, rec.Members)
	for i := range members {
		out := outcomes[i]
		members[i] = ensemble.Member{Index: i, Seed: seed(i), WallNs: out.rec.WallNs}
		switch {
		case out.err != nil:
			members[i].Err = out.err
		case out.rec.Status == StatusFailed, out.rec.Status == StatusCancelled, out.rec.Status == StatusLost:
			members[i].Err = fmt.Errorf("member run %s: %s", out.rec.ID, out.rec.Status)
		case out.res != nil:
			members[i].Result = out.res
		case out.rec.ID != "":
			// Cached member whose artifact was evicted meanwhile: the
			// scalars survive in the record; only the DOS detail is lost.
			members[i].Result = &qt.Result{
				Converged: out.rec.Converged, Iterations: out.rec.Iterations,
				Current: out.rec.Current,
			}
		default:
			members[i].Err = context.Canceled
		}
	}

	rec.Finished = time.Now().UTC()
	rec.WallNs = time.Since(start).Nanoseconds()
	dev, err := rec.Config.Spec.Build()
	if err != nil {
		// Cannot happen for a config that admitted members, but fail loudly.
		rec.Status = StatusFailed
		rec.Error = err.Error()
	} else {
		rep := ensemble.Reduce(dev, members)
		rep.BaseSeed = rec.BaseSeed
		rep.WallNs = rec.WallNs
		for k := range rep.MemberRows {
			out := outcomes[rep.MemberRows[k].Index]
			rep.MemberRows[k].RunID = out.rec.ID
			rep.MemberRows[k].CacheHit = out.rec.CacheHit
			rep.MemberRows[k].WarmStart = out.rec.WarmStart
		}
		rec.Report = rep
		switch {
		case st.ctx.Err() != nil:
			rec.Status = StatusCancelled
		case rep.Current.N == 0:
			rec.Status = StatusFailed
			rec.Error = "no member produced a result"
		default:
			rec.Status = StatusDone
		}
	}
	s.reg.putStudy(rec)
	s.met.ensembles.With(string(rec.Status)).Inc()
	s.log.Info("study finished", "study", rec.ID, "tenant", rec.Tenant,
		"status", string(rec.Status), "members", rec.DoneMembers,
		"cache_hits", rec.CacheHits, "warm_starts", rec.WarmStarts,
		"wall_ms", rec.WallNs/1e6)
}
