package server

import (
	"repro/internal/obs"
	"repro/internal/qt"
)

// metrics is the qtd instrument set: the per-tenant admission picture
// (queue depth, wait time, sheds), slot utilization, the
// content-addressed cache counters, and per-run outcome series —
// exposed on GET /metrics in Prometheus text format.
type metrics struct {
	reg *obs.Registry

	queueDepth *obs.GaugeVec     // tenant
	queueWait  *obs.HistogramVec // tenant
	slotsBusy  *obs.Gauge
	shed       *obs.CounterVec // tenant

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	warmStarts  *obs.Counter

	runs     *obs.CounterVec // tenant, status
	runDur   *obs.Histogram
	runIters *obs.Histogram

	ensembles       *obs.CounterVec // status
	ensembleMembers *obs.Counter

	sseBytes       *obs.Counter
	reduceBytes    *obs.Counter
	fallbackBlocks *obs.Counter
}

func newMetrics(cfg Config) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg: r,
		queueDepth: r.GaugeVec("qtd_queue_depth",
			"Jobs waiting in the admission queue, per tenant.", "tenant"),
		queueWait: r.HistogramVec("qtd_queue_wait_seconds",
			"Time from admission to dispatch onto a solver slot.",
			obs.ExpBuckets(0.001, 4, 10), "tenant"),
		slotsBusy: r.Gauge("qtd_slots_busy",
			"Solver slots currently executing a run."),
		shed: r.CounterVec("qtd_shed_total",
			"Submissions shed with 429 (queue full), per tenant.", "tenant"),
		cacheHits: r.Counter("qtd_cache_hits_total",
			"Requests answered from the content-addressed result cache."),
		cacheMisses: r.Counter("qtd_cache_misses_total",
			"Requests that missed the result cache and were queued."),
		warmStarts: r.Counter("qtd_warm_starts_total",
			"Runs seeded with a cached converged Σ state."),
		runs: r.CounterVec("qtd_runs_total",
			"Finished runs by terminal status.", "tenant", "status"),
		runDur: r.Histogram("qtd_run_duration_seconds",
			"Solver-slot run wall time.", obs.ExpBuckets(0.01, 4, 10)),
		runIters: r.Histogram("qtd_run_iterations",
			"Self-consistent iterations to convergence (or the cap).",
			[]float64{1, 2, 4, 8, 16, 32, 64}),
		ensembles: r.CounterVec("qtd_ensembles_total",
			"Finished ensemble studies by terminal status.", "status"),
		ensembleMembers: r.Counter("qtd_ensemble_members_total",
			"Ensemble member runs completed (cached or solved)."),
		sseBytes: r.Counter("qtd_sse_bytes_total",
			"Distributed SSE exchange traffic across all runs (wire bytes)."),
		reduceBytes: r.Counter("qtd_reduce_bytes_total",
			"Distributed observable-reduction traffic across all runs (bytes)."),
		fallbackBlocks: r.Counter("qtd_fallback_blocks_total",
			"Mixed-precision exchange segments shipped as verbatim fp64."),
	}
	r.GaugeFunc("qtd_slots",
		"Configured solver slots.", func() float64 { return float64(cfg.Slots) })
	// The process's boundary store (qt.BoundaryStore): hits ÷ lookups is
	// the share of cold boundary lookups an earlier run had already paid.
	for _, g := range []struct {
		name, help string
		read       func(qt.BoundaryStoreStats) int64
	}{
		{"lookups", "Boundary lookups that missed their run's cache and asked the store.",
			func(b qt.BoundaryStoreStats) int64 { return b.Lookups }},
		{"hits", "Store lookups served from an earlier solve's decimation.",
			func(b qt.BoundaryStoreStats) int64 { return b.Hits }},
		{"decimations", "Store lookups that ran a Sancho-Rubio decimation.",
			func(b qt.BoundaryStoreStats) int64 { return b.Decimations }},
		{"evictions", "Results evicted (least recently used) to stay inside the byte budget.",
			func(b qt.BoundaryStoreStats) int64 { return b.Evictions }},
		{"digests", "Lead blocks hashed into a content key (once per lead and run).",
			func(b qt.BoundaryStoreStats) int64 { return b.Digests }},
		{"bytes", "Resident bytes of stored boundary results.",
			func(b qt.BoundaryStoreStats) int64 { return b.Bytes }},
		{"entries", "Stored boundary results.",
			func(b qt.BoundaryStoreStats) int64 { return b.Entries }},
	} {
		r.GaugeFunc("qtd_boundary_store_"+g.name, g.help,
			func() float64 { return float64(g.read(qt.BoundaryStore())) })
	}
	return m
}

// observeRun folds one slot-executed run's result into the run series;
// status is the terminal registry status.
func (m *metrics) observeRun(tenant string, status Status, wallSec float64, res *qt.Result) {
	m.runs.With(tenant, string(status)).Inc()
	m.runDur.Observe(wallSec)
	if res == nil {
		return
	}
	m.runIters.Observe(float64(res.Iterations))
	for _, st := range res.Trace {
		m.sseBytes.Add(float64(st.SSEBytes))
		m.reduceBytes.Add(float64(st.ReduceBytes))
		m.fallbackBlocks.Add(float64(st.FallbackBlocks))
	}
}
