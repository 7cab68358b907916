// Package server is the multi-tenant simulation service behind the qtd
// daemon: an HTTP/JSON front over the qt facade with SSE streaming of
// the per-iteration telemetry, a fair-share priority queue admitting
// jobs to a bounded pool of solver slots, a content-addressed result
// cache and a single-flight table keyed on the result identity
// (qt.RunConfig.Identity: requests for one result are answered by one
// execution, whatever plan each names; near-identical ones warm-start
// from a cached converged Σ≷ state), and a persistent run registry with
// artifact lineage — the paper's data-centric runs turned into
// registered, addressable, reusable artifacts.
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

// job is one admitted request whose record is not final yet: a leader,
// which owns an execution (queued, then running on a slot), or a
// follower, attached to the leader in flight with its result identity.
type job struct {
	id       string
	tenant   string
	priority int
	cfg      qt.RunConfig // resolved configuration, its plan recorded
	key      string       // cfg.Identity().Key()
	warmKey  string       // cfg.Identity().WarmKey()
	// submitted stamps admission; the queue-wait histogram observes the
	// distance to dispatch.
	submitted time.Time

	// ctx and cancel are a leader's execution context.
	ctx    context.Context
	cancel context.CancelFunc

	// The iteration telemetry: execute publishes one row per iteration
	// of the execution to its leader and every follower, and marks a
	// feed done after that request's registry record is final.
	*feed[qt.IterStats]

	// result is the full facade result, set before done is closed (the
	// close is the happens-before edge readers synchronize on). The
	// ensemble runner reads it for the DOS reduction — the registry
	// record only carries scalars.
	result *qt.Result

	// The single-flight state, guarded by Server.mu (see flight.go). A
	// follower names its leader; a leader lists its followers and counts
	// the requests still attached to its execution, its own included
	// until released.
	leader    *job
	followers []*job
	attached  int
	released  bool
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
	flights map[string]*job      // result identity key → the leader computing it
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
		flights: map[string]*job{},
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
// record of the outcome and, unless the request was answered at once,
// the job to stream or cancel. The request is resolved and addressed by
// its result identity: a cached result answers it with no device built;
// a run of the same identity in flight takes it on as a follower; only a
// miss builds the simulation and queues it. Resolving has already
// written an auto_plan request's plan into its configuration. A traced
// request asks for an execution's spans, so it neither reads the cache
// nor joins, and its result then serves later requests like any other.
// studyID, when non-empty, stamps the record with its ensemble-study
// lineage. err is ErrQueueFull under backpressure, or a validation error.
func (s *Server) submit(tenant string, priority int, rc qt.RunConfig, studyID string) (Record, *job, error) {
	resolved, err := qt.Resolve(rc)
	if err != nil {
		return Record{}, nil, err
	}
	identity := resolved.Identity()
	rec := Record{
		Tenant: tenant, Priority: priority,
		Key: identity.Key(), WarmKey: identity.WarmKey(), Config: resolved,
		Status: StatusQueued, Submitted: time.Now().UTC(), Study: studyID,
	}

	s.mu.Lock()
	if !resolved.Trace {
		if e, ok := s.cache.Get(rec.Key); ok {
			s.mu.Unlock()
			rec.ID = s.reg.newID()
			rec = answer(rec, e)
			if err := s.reg.put(rec); err != nil {
				return Record{}, nil, err
			}
			s.met.cacheHits.Inc()
			s.log.Info("cache hit", "run", rec.ID, "tenant", tenant, "source", e.RunID)
			return rec, nil, nil
		}
		if leader := s.flights[rec.Key]; leader != nil {
			defer s.mu.Unlock()
			return s.join(rec, leader)
		}
	}
	// A miss: this request leads an execution of its identity, reserved
	// before the device is built so a twin arriving meanwhile joins it.
	j := &job{
		id: s.reg.newID(), tenant: tenant, priority: priority,
		cfg: resolved, key: rec.Key, warmKey: rec.WarmKey,
		feed:     newFeed[qt.IterStats](resolved.MaxIterations),
		attached: 1,
	}
	j.ctx, j.cancel = context.WithCancel(s.ctx)
	if s.flights[j.key] == nil {
		s.flights[j.key] = j
	}
	s.mu.Unlock()

	// Built once at admission so that a spec the device layer refuses (a
	// profile that does not apply) is refused here, not on a slot.
	if _, err := qt.NewFromConfig(resolved); err != nil {
		s.abandon(j, err)
		return Record{}, nil, err
	}
	j.submitted = time.Now()
	rec.ID, rec.Submitted = j.id, j.submitted.UTC()

	// The queued record and the depth gauge must exist before the job is
	// visible to the slot workers: an idle worker pops it at once, and the
	// final record execute writes must not be overwritten by this one.
	if err := s.reg.put(rec); err != nil {
		s.abandon(j, err)
		return Record{}, nil, err
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.met.queueDepth.With(tenant).Add(1)
	if err := s.q.Push(j); err != nil {
		s.met.queueDepth.With(tenant).Add(-1)
		if derr := s.reg.remove(j.id); derr != nil {
			s.log.Warn("shed record not removed", "run", j.id, "err", derr)
		}
		s.abandon(j, err)
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

// cancelRun withdraws a queued or running request (see release). Returns
// the record and whether the id was known.
func (s *Server) cancelRun(id string) (Record, bool) {
	if j, live := s.jobByID(id); live {
		s.release(j)
	}
	return s.reg.get(id)
}

// finalizeCancelled marks a never-executed leader cancelled. Callers have
// already removed it from the queue, so the depth gauge drops here.
func (s *Server) finalizeCancelled(j *job) {
	s.met.queueDepth.With(j.tenant).Add(-1)
	s.log.Info("cancelled while queued", "run", j.id, "tenant", j.tenant)
	j.cancel()
	rec, _ := s.reg.get(j.id)
	rec.Status = StatusCancelled
	rec.Finished = time.Now().UTC()
	s.finish(j, rec)
}

// execute runs one admitted job on the calling worker's slot.
func (s *Server) execute(j *job) {
	s.met.slotsBusy.Add(1)
	defer s.met.slotsBusy.Add(-1)

	rec, _ := s.reg.get(j.id)
	conclude := func(st Status, err error) {
		rec.Status = st
		if err != nil {
			rec.Error = err.Error()
		}
		rec.Finished = time.Now().UTC()
		s.finish(j, rec)
	}
	if j.ctx.Err() != nil {
		conclude(StatusCancelled, nil)
		return
	}

	// Warm-start lineage: a converged Σ≷ state of the same bias-family
	// seeds a run without ranks close to its fixed point.
	var extra []qt.Option
	if j.cfg.Ranks == 0 {
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
		conclude(StatusFailed, err)
		return
	}

	s.slotRuns.Add(1)
	rec.Status = StatusRunning
	rec.Started = time.Now().UTC()
	s.reg.put(rec)

	start := time.Now()
	run, err := sim.Start(j.ctx)
	if err != nil {
		conclude(StatusCancelled, nil)
		return
	}
	for st := range run.Stats() {
		s.publish(j, st)
	}
	res, err := run.Wait()
	wall := time.Since(start)
	s.observeRunTime(wall)
	j.result = res // published to waiters by finish's markDone

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
		rec.Report = report.NewRun(sim, res, wall.Nanoseconds())
	case j.ctx.Err() != nil:
		rec.Status = StatusCancelled
	default:
		rec.Status = StatusFailed
		rec.Error = err.Error()
	}
	// The trace goes first: a client that sees the final status may ask
	// for the artifact at once.
	if res != nil && res.Spans != nil {
		if err := s.reg.putTrace(j.id, res.Spans); err != nil {
			s.log.Warn("trace store failed", "run", j.id, "err", err)
		}
	}
	s.finish(j, rec)
	s.met.observeRun(j.tenant, rec.Status, wall.Seconds(), res)
	s.log.Info("finished", "run", j.id, "tenant", j.tenant,
		"status", string(rec.Status), "converged", rec.Converged,
		"iterations", rec.Iterations, "wall_ms", wall.Milliseconds(),
		"plan", sim.PlanString())
}
