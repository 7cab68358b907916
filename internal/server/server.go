// Package server is the multi-tenant simulation service behind the qtd
// daemon: an HTTP/JSON front over the qt facade with SSE streaming of
// the per-iteration telemetry, a fair-share priority queue admitting
// jobs to a bounded pool of solver slots, a content-addressed result
// cache keyed on the canonical qt.RunConfig hash (identical requests are
// answered instantly; near-identical ones warm-start from a cached
// converged Σ≷ state), and a persistent run registry with artifact
// lineage — the paper's data-centric runs turned into registered,
// addressable, reusable artifacts.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qt"
	"repro/internal/report"
)

// Config sizes the service.
type Config struct {
	// Slots bounds the number of concurrently executing solver runs
	// (default: max(2, NumCPU/2)). Each slot multiplexes one qt run,
	// which parallelizes internally.
	Slots int
	// QueueCap bounds the admission queue; beyond it submissions are
	// shed with 429 + Retry-After (default 64).
	QueueCap int
	// CacheCap bounds the content-addressed result cache entries
	// (default 128).
	CacheCap int
	// DataDir persists the run registry ("" = in-memory only).
	DataDir string
	// NoWarmStart disables Σ≷ seeding from the cache (A/B debugging).
	NoWarmStart bool
	// Logger receives the service's structured log records (admission,
	// dispatch, cache hits, sheds, completions), each carrying run-id and
	// tenant attributes. Nil discards them — the in-process test default.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = max(2, runtime.NumCPU()/2)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 128
	}
	return c
}

// job is one admitted (queued or running) run.
type job struct {
	id       string
	tenant   string
	priority int
	cfg      qt.RunConfig // resolved configuration
	key      string
	warmKey  string
	// submitted stamps admission; the queue-wait histogram observes the
	// distance to dispatch.
	submitted time.Time

	ctx    context.Context
	cancel context.CancelFunc

	// The iteration telemetry: execute publishes one row per iteration
	// and marks the feed done after the registry record is final.
	*feed[qt.IterStats]

	// result is the full facade result, set by execute before done is
	// closed (the close is the happens-before edge readers synchronize
	// on). The ensemble runner reads it for the DOS reduction — the
	// registry record only carries scalars.
	result *qt.Result
}

// Server is the in-process service; cmd/qtd wraps it in an http.Server.
type Server struct {
	cfg   Config
	q     *queue
	cache *cache
	reg   *Registry
	mux   *http.ServeMux
	log   *slog.Logger
	met   *metrics

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job      // admitted and not yet finalized
	studies map[string]*studyRun // ensemble studies not yet finalized

	// studyWg tracks study runner goroutines separately from the slot
	// workers: a runner blocks on member jobs, so Close must drain the
	// workers and finalize leftover queued jobs BEFORE waiting on it.
	studyWg sync.WaitGroup

	slotRuns  atomic.Int64 // runs that actually consumed a solver slot
	runNsEWMA atomic.Int64 // smoothed run wall time, feeds Retry-After
}

// New builds the service and starts its solver-slot workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg, err := OpenRegistry(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:     cfg,
		q:       newQueue(cfg.QueueCap),
		cache:   newCache(cfg.CacheCap),
		reg:     reg,
		log:     log,
		met:     newMetrics(cfg),
		jobs:    map[string]*job{},
		studies: map[string]*studyRun{},
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.mux = s.routes()
	for i := 0; i < cfg.Slots; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Registry exposes the run registry (read access for tools and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Close cancels every admitted run, stops the workers, and waits for
// them to drain. Safe to call more than once.
func (s *Server) Close() {
	s.stop()    // cancels all job contexts (they derive from s.ctx)
	s.q.Close() // wakes idle workers
	s.wg.Wait()
	// Finalize jobs the workers never popped (queue closed first).
	s.mu.Lock()
	left := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		left = append(left, j)
	}
	s.mu.Unlock()
	for _, j := range left {
		if q := s.q.Remove(j.id); q != nil {
			s.finalizeCancelled(j)
		}
	}
	// Only now can study runners finish: they block on member job done
	// channels, which the finalize loop above closed for never-popped
	// queued members.
	s.studyWg.Wait()
}

// worker is one solver slot: it executes admitted jobs under the
// fair-share dispatch order until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.Pop()
		if !ok {
			return
		}
		s.met.queueDepth.With(j.tenant).Add(-1)
		s.met.queueWait.With(j.tenant).Observe(time.Since(j.submitted).Seconds())
		s.log.Info("dispatch", "run", j.id, "tenant", j.tenant,
			"wait_ms", time.Since(j.submitted).Milliseconds())
		s.execute(j)
		s.q.Done(j.tenant)
	}
}

// Stats is the service-level telemetry of /v1/stats.
type Stats struct {
	Queued   int        `json:"queued"`
	Running  int        `json:"running"`
	Slots    int        `json:"slots"`
	SlotRuns int64      `json:"slot_runs"` // runs that consumed a slot (cache hits do not)
	Cache    CacheStats `json:"cache"`
	// BoundaryStore is the process-wide boundary store every run of this
	// daemon solves over (qt.BoundaryStore).
	BoundaryStore qt.BoundaryStoreStats `json:"boundary_store"`
}

// ServiceStats snapshots the queue, slot, and cache counters.
func (s *Server) ServiceStats() Stats {
	queued, running := s.q.Stats()
	return Stats{
		Queued: queued, Running: running,
		Slots: s.cfg.Slots, SlotRuns: s.slotRuns.Load(),
		Cache:         s.cache.Stats(),
		BoundaryStore: qt.BoundaryStore(),
	}
}

// retryAfter estimates how long a shed client should back off: the
// smoothed run time times the queue depth per slot, floored at 1s.
func (s *Server) retryAfter() time.Duration {
	avg := time.Duration(s.runNsEWMA.Load())
	if avg <= 0 {
		avg = 5 * time.Second
	}
	queued, _ := s.q.Stats()
	d := avg * time.Duration(queued/s.cfg.Slots+1)
	if d < time.Second {
		d = time.Second
	}
	return d
}

func (s *Server) observeRunTime(d time.Duration) {
	prev := s.runNsEWMA.Load()
	if prev == 0 {
		s.runNsEWMA.Store(d.Nanoseconds())
		return
	}
	s.runNsEWMA.Store((3*prev + d.Nanoseconds()) / 4)
}

// submit validates and admits one request. It returns the registry
// record of the outcome: a cached answer (no slot consumed), or a queued
// job (whose handle is returned for streaming/cancellation). studyID,
// when non-empty, stamps the record with its ensemble-study lineage.
// err is ErrQueueFull under backpressure, or a validation error.
func (s *Server) submit(tenant string, priority int, rc qt.RunConfig, studyID string) (Record, *job, error) {
	sim, err := qt.NewFromConfig(rc)
	if err != nil {
		return Record{}, nil, err
	}
	resolved := sim.Config()
	key, warmKey := resolved.Key(), resolved.WarmKey()
	now := time.Now().UTC()

	// Content-addressed fast path: identical resolved configuration.
	if e, ok := s.cache.Get(key); ok {
		s.met.cacheHits.Inc()
		rec := Record{
			ID: s.reg.NewID(), Tenant: tenant, Priority: priority,
			Key: key, WarmKey: warmKey, Config: resolved,
			Status: StatusCached, Submitted: now, Finished: now,
			CacheHit: true, SourceRun: e.RunID, Study: studyID,
			Converged: e.Result.Converged, Iterations: e.Result.Iterations,
			Current: e.Result.Current,
			Report:  e.Report,
		}
		if err := s.reg.Put(rec); err != nil {
			return Record{}, nil, err
		}
		s.log.Info("cache hit", "run", rec.ID, "tenant", tenant, "source", e.RunID)
		return rec, nil, nil
	}

	j := &job{
		id: s.reg.NewID(), tenant: tenant, priority: priority,
		cfg: resolved, key: key, warmKey: warmKey,
		submitted: time.Now(),
		feed:      newFeed[qt.IterStats](resolved.MaxIterations),
	}
	j.ctx, j.cancel = context.WithCancel(s.ctx)

	// The queued record and the depth gauge must exist before the job is
	// visible to the slot workers: an idle worker pops it at once, and
	// execute drops a job it finds no record for.
	rec := Record{
		ID: j.id, Tenant: tenant, Priority: priority,
		Key: key, WarmKey: warmKey, Config: resolved,
		Status: StatusQueued, Submitted: now, Study: studyID,
	}
	if err := s.reg.Put(rec); err != nil {
		j.cancel()
		return Record{}, nil, err
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.met.queueDepth.With(tenant).Add(1)
	if err := s.q.Push(j); err != nil {
		s.met.queueDepth.With(tenant).Add(-1)
		s.removeJob(j.id)
		j.cancel()
		if derr := s.reg.Delete(j.id); derr != nil {
			s.log.Warn("shed record not removed", "run", j.id, "err", derr)
		}
		s.met.shed.With(tenant).Inc()
		s.log.Warn("shed", "tenant", tenant, "err", err)
		return Record{}, nil, err
	}
	s.met.cacheMisses.Inc()
	s.log.Info("admitted", "run", j.id, "tenant", tenant, "priority", priority)
	return rec, j, nil
}

// jobByID returns the live (not yet finalized) job.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) removeJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// cancelRun cancels a queued or running run. Returns the record and
// whether the id was known.
func (s *Server) cancelRun(id string) (Record, bool) {
	j, live := s.jobByID(id)
	if live {
		if q := s.q.Remove(id); q != nil {
			// Still queued: the worker will never see it — finalize here.
			s.finalizeCancelled(j)
		} else {
			// Running (or being popped): the solver observes the context
			// between iterations and the worker finalizes.
			j.cancel()
		}
	}
	return s.reg.Get(id)
}

// finalizeCancelled marks a never-executed job cancelled. Callers have
// already removed it from the queue, so the depth gauge drops here.
func (s *Server) finalizeCancelled(j *job) {
	s.met.queueDepth.With(j.tenant).Add(-1)
	s.log.Info("cancelled while queued", "run", j.id, "tenant", j.tenant)
	j.cancel()
	if rec, ok := s.reg.Get(j.id); ok {
		rec.Status = StatusCancelled
		rec.Finished = time.Now().UTC()
		s.reg.Put(rec)
	}
	s.removeJob(j.id)
	j.markDone()
}

// execute runs one admitted job on the calling worker's slot.
func (s *Server) execute(j *job) {
	defer j.markDone()
	defer s.removeJob(j.id)
	s.met.slotsBusy.Add(1)
	defer s.met.slotsBusy.Add(-1)

	rec, ok := s.reg.Get(j.id)
	if !ok {
		return
	}
	if j.ctx.Err() != nil {
		rec.Status = StatusCancelled
		rec.Finished = time.Now().UTC()
		s.reg.Put(rec)
		return
	}

	// Warm-start lineage: a converged Σ≷ state of the same bias-family
	// seeds the sequential loop close to its fixed point.
	var extra []qt.Option
	if !s.cfg.NoWarmStart && j.cfg.Ranks == 0 {
		if e, ok := s.cache.Warm(j.warmKey, j.key); ok {
			extra = append(extra, qt.WithWarmStart(e.Result.FinalState))
			rec.WarmStart = true
			rec.SourceRun = e.RunID
			s.met.warmStarts.Inc()
			s.log.Info("warm start", "run", j.id, "tenant", j.tenant, "source", e.RunID)
		}
	}
	sim, err := qt.NewFromConfig(j.cfg, extra...)
	if err != nil {
		rec.Status = StatusFailed
		rec.Error = err.Error()
		rec.Finished = time.Now().UTC()
		s.reg.Put(rec)
		return
	}

	s.slotRuns.Add(1)
	rec.Status = StatusRunning
	rec.Started = time.Now().UTC()
	s.reg.Put(rec)

	start := time.Now()
	run, err := sim.Start(j.ctx)
	if err != nil {
		rec.Status = StatusCancelled
		rec.Finished = time.Now().UTC()
		s.reg.Put(rec)
		return
	}
	for st := range run.Stats() {
		j.publish(st)
	}
	res, err := run.Wait()
	wall := time.Since(start)
	s.observeRunTime(wall)
	j.result = res // published to waiters by the deferred markDone

	rec.Finished = time.Now().UTC()
	rec.WallNs = wall.Nanoseconds()
	if res != nil {
		rec.Converged = res.Converged
		rec.Iterations = res.Iterations
		rec.Current = res.Current
	}
	switch {
	case err == nil:
		rec.Status = StatusDone
		rep := report.NewRun(sim, res, wall.Nanoseconds())
		rec.Report = rep
		if res.Converged {
			s.cache.Put(&cacheEntry{
				Key: j.key, WarmKey: j.warmKey, RunID: j.id,
				Config: j.cfg, Result: res, Report: rep,
			})
		}
	case j.ctx.Err() != nil:
		rec.Status = StatusCancelled
	default:
		rec.Status = StatusFailed
		rec.Error = err.Error()
	}
	// The trace goes first: a client that sees the final status may ask
	// for the artifact at once.
	if res != nil && res.Spans != nil {
		if err := s.reg.PutTrace(j.id, res.Spans); err != nil {
			s.log.Warn("trace store failed", "run", j.id, "err", err)
		}
	}
	s.reg.Put(rec)
	s.met.observeRun(j.tenant, rec.Status, wall.Seconds(), res)
	s.log.Info("finished", "run", j.id, "tenant", j.tenant,
		"status", string(rec.Status), "converged", rec.Converged,
		"iterations", rec.Iterations, "wall_ms", wall.Milliseconds(),
		"plan", sim.PlanString())
}
