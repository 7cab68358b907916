package server

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/qt"
)

// The single-flight table: Server.flights maps a result identity to the
// leader whose execution computes it, from admission until finish. A
// request for the same identity joins that execution as a follower
// instead of computing the result again. Every piece of the table —
// flights, a leader's followers and attached count, a request's released
// mark — is guarded by Server.mu.

// join attaches rec's request to the execution leader leads: the
// follower streams the leader's rows (those already published first) and
// ends with a cached record naming the leader. Its queued record is
// written before it becomes visible to finish, which would otherwise race
// it with the final one. Called with s.mu held.
func (s *Server) join(rec Record, leader *job) (Record, *job, error) {
	rec.ID = s.reg.runs.newID()
	if err := s.reg.runs.put(rec); err != nil {
		return Record{}, nil, err
	}
	f := &job{
		id: rec.ID, tenant: rec.Tenant, priority: rec.Priority,
		cfg: rec.Config, key: rec.Key, warmKey: rec.WarmKey,
		submitted: time.Now(),
		feed:      newFeed[qt.IterStats](rec.Config.MaxIterations),
		leader:    leader,
	}
	f.follow(leader.feed)
	leader.followers = append(leader.followers, f)
	leader.attached++
	s.jobs[f.id] = f
	s.log.Info("joined", "run", f.id, "tenant", f.tenant, "leader", leader.id)
	return rec, f, nil
}

// publish streams one iteration row of j's execution to j and to every
// request attached to it.
func (s *Server) publish(j *job, st qt.IterStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.publish(st)
	for _, f := range j.followers {
		f.publish(st)
	}
}

// release withdraws one request from its execution. A follower detaches
// alone and ends cancelled. The execution is cancelled only when the last
// attached request lets go: a queued one is finalized here, a running one
// stops between iterations. Until then a released leader's record goes on
// describing the execution its followers wait for. release reports
// whether it cancelled the execution.
func (s *Server) release(j *job) bool {
	lead := j
	if j.leader != nil {
		lead = j.leader
	}
	s.mu.Lock()
	detached := false
	if j.leader != nil {
		if i := slices.Index(lead.followers, j); i >= 0 {
			lead.followers = slices.Delete(lead.followers, i, i+1)
			detached = true
		}
	} else {
		detached = !j.released
		j.released = true
	}
	if detached {
		lead.attached--
	}
	stop := detached && lead.attached == 0
	if stop && s.flights[lead.key] == lead {
		delete(s.flights, lead.key) // nobody may join a cancelled run
	}
	s.mu.Unlock()

	if detached && j != lead {
		rec, _ := s.reg.runs.get(j.id)
		rec.Status = StatusCancelled
		rec.Finished = time.Now().UTC()
		s.end(j, rec)
	}
	if !stop {
		return false
	}
	if s.q.Remove(lead.id) != nil {
		s.finalizeCancelled(lead)
	} else {
		lead.cancel()
	}
	return true
}

// finish ends an execution with its leader's final record: a converged
// result is cached under its identity, the record is written, and every
// request still attached ends with it — as a cached answer naming the
// leader when the run is done, with the leader's status otherwise.
func (s *Server) finish(j *job, rec Record) {
	var src *cacheEntry
	if rec.Status == StatusDone {
		src = &cacheEntry{Key: j.key, WarmKey: j.warmKey, RunID: j.id, Config: j.cfg, Result: j.result, Report: rec.Report}
	}
	s.mu.Lock()
	if s.flights[j.key] == j {
		delete(s.flights, j.key)
	}
	if src != nil && src.Result.Converged {
		s.cache.Put(src)
	}
	followers := j.followers
	j.followers = nil
	s.mu.Unlock()

	s.end(j, rec)
	for _, f := range followers {
		frec, _ := s.reg.runs.get(f.id)
		if src != nil {
			frec = answer(frec, src)
			f.result = j.result
		} else {
			frec.Status, frec.SourceRun = rec.Status, j.id
			frec.Error = fmt.Sprintf("source run %s ended %s", j.id, rec.Status)
			if rec.Error != "" {
				frec.Error += ": " + rec.Error
			}
			frec.Finished = time.Now().UTC()
		}
		s.end(f, frec)
	}
}

// abandon ends a leader that was never admitted — its device failed to
// build, or the queue shed it — together with every request that joined
// it meanwhile.
func (s *Server) abandon(j *job, err error) {
	j.cancel()
	s.finish(j, Record{Status: StatusFailed, Error: err.Error()})
}

// end writes a request's final record (none for a leader never
// admitted), retires the job and closes its feed.
func (s *Server) end(j *job, rec Record) {
	if rec.ID != "" {
		s.reg.runs.put(rec)
	}
	s.mu.Lock()
	delete(s.jobs, j.id)
	s.mu.Unlock()
	j.markDone()
}

// answer completes rec as an answer from the result src holds: no slot
// consumed and the producing run named. rec keeps its own resolved
// configuration, an auto_plan request's recorded plan included.
func answer(rec Record, src *cacheEntry) Record {
	rec.Status, rec.CacheHit, rec.SourceRun = StatusCached, true, src.RunID
	rec.Finished = time.Now().UTC()
	rec.Converged, rec.Iterations, rec.Current = src.Result.Converged, src.Result.Iterations, src.Result.Current
	rec.Report = src.Report
	return rec
}
