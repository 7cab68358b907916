package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// spec.disorder_seed = BaseSeed + i, so members key distinct cache
// artifacts.
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
// own goroutine (runStudy).
func (s *Server) submitStudy(req studyRequest) (studyRecord, *studyRun, error) {
	study := &ensemble.Study{Config: req.Config, Members: req.Members, BaseSeed: req.BaseSeed}
	if err := study.Validate(); err != nil {
		return studyRecord{}, nil, err
	}
	if req.Members > maxStudyMembers {
		return studyRecord{}, nil, fmt.Errorf("members must be at most %d (got %d)", maxStudyMembers, req.Members)
	}
	sim, err := qt.NewFromConfig(req.Config)
	if err != nil {
		return studyRecord{}, nil, err
	}
	study.Config = sim.Config()
	rec := studyRecord{
		ID: s.reg.studies.newID(), Tenant: req.Tenant, Priority: req.Priority,
		Config: study.Config, Members: req.Members, BaseSeed: req.BaseSeed,
		Status: StatusQueued, Submitted: time.Now().UTC(),
	}
	if err := s.reg.studies.put(rec); err != nil {
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
	go s.runStudy(st, rec, study)
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
	return s.reg.studies.get(id)
}

// runStudy executes one study through ensemble.Study.Run, which orders,
// seeds and reduces the members, with this daemon's submit path as its
// executor; runStudy keeps the study record and its feed: progress and
// a member frame as each member finishes, the reduced report at the end.
func (s *Server) runStudy(st *studyRun, rec studyRecord, study *ensemble.Study) {
	defer s.studyWg.Done()
	defer st.markDone()
	defer s.removeStudy(st.id)

	// snapshot copies rec for the registry: OnMember keeps filling rec's
	// MemberRuns while handlers encode the stored copy, which must own
	// its slice.
	snapshot := func() studyRecord {
		c := rec
		c.MemberRuns = slices.Clone(rec.MemberRuns)
		return c
	}
	rec.Status = StatusRunning
	rec.Started = time.Now().UTC()
	rec.MemberRuns = make([]string, rec.Members)
	s.reg.studies.put(snapshot())

	// donor is member 0's run, the source every seeded member names: the
	// study finishes member 0 before it starts another.
	var donor string
	study.Exec = func(ctx context.Context, rc qt.RunConfig, seed *qt.SigmaState) (*qt.Result, ensemble.Lineage, error) {
		from := origin{study: st.id, seed: seed}
		if seed != nil {
			from.source = donor
		}
		return s.runMember(ctx, rec.Tenant, rec.Priority, rc, from)
	}
	study.OnMember = func(m ensemble.Member) {
		if m.Index == 0 {
			donor = m.RunID
		}
		rec.DoneMembers++
		rec.MemberRuns[m.Index] = m.RunID
		if m.CacheHit {
			rec.CacheHits++
		} else if m.Start == report.StartWarm {
			rec.WarmStarts++
		}
		s.reg.studies.put(snapshot())
		s.met.ensembleMembers.Inc()
		st.publish(m.Row())
	}
	res, err := study.Run(st.ctx)

	rec.Finished = time.Now().UTC()
	switch {
	case res == nil:
		// Cannot happen for a config that admitted members, but fail loudly.
		rec.Status = StatusFailed
		rec.Error = err.Error()
	case st.ctx.Err() != nil:
		rec.Status = StatusCancelled
	case res.Report.Current.N == 0:
		rec.Status = StatusFailed
		rec.Error = "no member produced a result"
	default:
		rec.Status = StatusDone
	}
	if res != nil {
		rec.Report, rec.WallNs = res.Report, res.Report.WallNs
	}
	s.reg.studies.put(rec)
	s.met.ensembles.With(string(rec.Status)).Inc()
	s.log.Info("study finished", "study", rec.ID, "tenant", rec.Tenant,
		"status", string(rec.Status), "members", rec.DoneMembers,
		"cache_hits", rec.CacheHits, "warm_starts", rec.WarmStarts,
		"wall_ms", rec.WallNs/1e6)
}

// runMember solves one study member on this daemon: a request through
// submit — so a cached result or a run in flight answers it — that
// yields while the queue is full, and a wait on its job, withdrawn when
// the study is cancelled.
func (s *Server) runMember(ctx context.Context, tenant string, priority int, rc qt.RunConfig, from origin) (*qt.Result, ensemble.Lineage, error) {
	_, j, err := s.submit(tenant, priority, rc, from)
	for errors.Is(err, errQueueFull) {
		select {
		case <-ctx.Done():
			return nil, ensemble.Lineage{}, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
		_, j, err = s.submit(tenant, priority, rc, from)
	}
	if err != nil {
		return nil, ensemble.Lineage{}, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		s.cancelRun(j.id)
		<-j.done
	}
	final, _ := s.reg.runs.get(j.id)
	lin := ensemble.Lineage{RunID: j.id, CacheHit: final.CacheHit}
	if final.Status != StatusDone && final.Status != StatusCached {
		return j.result, lin, fmt.Errorf("member run %s: %s", j.id, final.Status)
	}
	return j.result, lin, nil
}
