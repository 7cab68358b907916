package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef declares one metric of the benchmark contract. Bound is the
// share of the parent's median an end-to-end metric may worsen by before
// a change counts as a regression (per-layer metrics carry none).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Doc    string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from the timed, untraced passes. BENCHMARK.json is generated
// from this table (-benchmark-json) and a test keeps the two equal.
//
// The three timings are reported in host-reference-normalised units
// (ref.go): this host's speed wanders by tens of percent over minutes,
// and the same binary would otherwise fail its own bounds. The bounds
// are the widest the contract allows for the timings — the spread left
// after normalisation is 6–11 % — and 10 % for allocation, which repeats
// to 0.3 % on the sequential workloads and to 3 % where the measured
// auto-plan decides the worker pool (see README "Steadiness"). The process's peak RSS is reported
// per layer (host.peak_rss_mb), not gated: on dist_schedules it spreads
// 18–22 % run to run with nothing the harness can do about it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "per pass: wall inside qt.NewFromConfig (validation, device build, auto-plan probe) or server.New + listener start, plus workload generation; measured on its own after the passes, median over up to forty samples of ~20 ms of set-ups each; normalised"},
	{"solve_s", "s", "lower", 0.25, "per pass: first Start/submit to last result, set-up excluded (time to solution at tol 1e-5; the script makespan for qtd_tenants); median over timed passes; normalised"},
	{"iter_ms_p50", "ms", "lower", 0.25, "median IterStats.WallNs over every iteration of every computed run of the timed passes; normalised"},
	{"alloc_mb_per_iter", "MB", "lower", 0.10, "runtime.MemStats.TotalAlloc delta over the timed passes ÷ iterations"},
}

// perLayer are the single-layer metrics of the traced run: timing rungs
// (min of N unless the name says p50), exact counts from public result
// fields, and shares from the solver's own spans. A metric the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"host.cores", "count", "higher", 0, "runtime.NumCPU"},
	{"host.gomaxprocs", "count", "higher", 0, "GOMAXPROCS the run used"},
	{"host.llc_mb", "MB", "higher", 0, "largest cache sysfs reports for cpu0"},
	{"host.peak_rss_mb", "MB", "lower", 0, "VmHWM of the process after the warm-up and the untraced reference pass, before the traced pass and the rungs"},
	{"host.copy_gbps", "GB/s", "higher", 0, "copy() of arrays of min(4×LLC, 64 MB), read+write bytes ÷ min time"},

	{"linalg.gemm_gflops", "GFLOP/s", "higher", 0, "complex128 GEMM at the electron block size, 8n³ flops, min time"},
	{"linalg.inverse_us", "us", "lower", 0, "LU factorization + inverse at the electron block size"},
	{"linalg.flops_per_iter", "count", "lower", 0, "linalg flop counter over the in-situ loop ÷ iterations (exact)"},

	{"rgf.solve_el_us", "us", "lower", 0, "rgf.SolveInto on a ballistic electron point, warm workspace"},
	{"rgf.solve_ph_us", "us", "lower", 0, "rgf.SolveInto on a ballistic phonon point, warm workspace"},
	{"rgf.allocs_per_solve", "count", "lower", 0, "heap allocations per warm rgf.SolveInto"},
	{"rgf.share_pct", "%", "lower", 0, "share of sequential iteration wall attributed to rgf spans (traced pass)"},

	{"bc.surface_gf_us", "us", "lower", 0, "cold Sancho–Rubio decimation of the electron edge block"},
	{"bc.cold_ms_iter0", "ms", "lower", 0, "Σ bc span time in iteration 0, per sequential solve (worker time, traced pass)"},
	{"bc.hit_ratio", "ratio", "higher", 0, "boundary cache hits ÷ lookups over the in-situ solve"},
	{"bc.share_pct", "%", "lower", 0, "share of sequential iteration wall attributed to bc spans (traced pass)"},

	{"sse.dace_ms", "ms", "lower", 0, "median sse.DaCe.Compute inside the in-situ loop"},
	{"sse.mixed_ms", "ms", "lower", 0, "sse.Mixed.Compute on the same sse.Input, beside DaCe in the in-situ loop"},
	{"sse.gflops", "GFLOP/s", "higher", 0, "sse.Stats.Flops ÷ sse.dace_ms"},
	{"sse.matmuls_per_iter", "count", "lower", 0, "sse.Stats.MatMuls of one iteration (exact)"},
	{"sse.flops_per_iter", "count", "lower", 0, "sse.Stats.Flops of one iteration (exact)"},
	{"sse.bytes_moved_per_iter", "bytes", "lower", 0, "sse.Stats.BytesMoved of one iteration (computed from tensor sizes, exact)"},
	{"sse.share_pct", "%", "lower", 0, "share of sequential iteration wall attributed to the sse phase (traced pass)"},
	{"batch.sbsmm_gflops", "GFLOP/s", "higher", 0, "SBSMMFixedB at n = Norb, count = Nkz·NE"},
	{"batch.sbsmm_half_gflops", "GFLOP/s", "higher", 0, "SBSMMHalf at n = Norb, count = Nkz·NE"},
	{"tensor.mix_ms", "ms", "lower", 0, "four tensor Mix calls at full tensor size"},

	{"negf.gf_phase_ms_p50", "ms", "lower", 0, "median GFPhase() wall in the in-situ loop"},
	{"negf.sse_phase_ms_p50", "ms", "lower", 0, "median SSEPhase() wall in the in-situ loop"},
	{"negf.mix_ms_p50", "ms", "lower", 0, "median SSEPhase() − wrapped Compute (self time: the mixing)"},
	{"negf.point_el_us_p50", "us", "lower", 0, "median PointSolver.SolveElectronPoint, warm boundary cache"},
	{"negf.point_ph_us_p50", "us", "lower", 0, "median PointSolver.SolvePhononPoint, warm boundary cache"},
	{"negf.first_iter_ms", "ms", "lower", 0, "iteration 0 of the in-situ solve (cold boundary cache)"},
	{"negf.iters_to_converge", "count", "lower", 0, "iterations summed over the sequential solves of one pass (exact)"},
	{"negf.unattributed_pct", "%", "lower", 0, "sequential iteration wall covered by neither the gf nor the sse span (traced pass)"},

	{"comm.bytes_per_iter", "bytes", "lower", 0, "Result.Comm.BytesSent ÷ iterations, P=2 phases (exact)"},
	{"comm.msgs_per_iter", "count", "lower", 0, "Result.Comm.Sends ÷ iterations, P=2 phases (exact)"},
	{"comm.collectives_per_iter", "count", "lower", 0, "Alltoallv + Allreduce invocations ÷ iterations, P=2 pipeline (exact; 4 + 1)"},
	{"comm.alltoallv_us", "us", "lower", 0, "one Alltoallv of the exchange rung (mean of the four, includes peer wait)"},
	{"comm.allreduce_us", "us", "lower", 0, "Allreduce of an observable-sized vector on a P=2 world"},
	{"comm.wait_ms_per_iter", "ms", "lower", 0, "rank-0 exchange + reduce span time ÷ iterations, P=2 phases (traced pass)"},
	{"decomp.pack_ms_per_iter", "ms", "lower", 0, "DaCePlan Pack{G,D,Sigma,Pi} on a P=2 layout, rank 0"},
	{"decomp.unpack_ms_per_iter", "ms", "lower", 0, "DaCePlan Unpack{G,D,Sigma,Pi} on a P=2 layout, rank 0"},
	{"decomp.tile_ms", "ms", "lower", 0, "DaCePlan.ComputeTile on a P=2 layout, rank 0"},
	{"half.wire_encode_mbps", "MB/s", "higher", 0, "half.WireEncode on the G≷ message"},
	{"half.wire_decode_mbps", "MB/s", "higher", 0, "half.WireDecode on the G≷ message"},
	{"half.fallback_blocks_per_iter", "count", "lower", 0, "IterStats.FallbackBlocks ÷ iterations, P=2 mixed (exact)"},
	{"sdfg.ns_per_task", "ns", "lower", 0, "build + Executor.Run of an iteration-shaped no-op graph ÷ nodes"},
	{"sdfg.tasks_per_iter", "count", "lower", 0, "rank-0 executor task spans ÷ iterations, P=2 overlap (traced pass)"},
	{"sdfg.idle_pct", "%", "lower", 0, "1 − rank-0 task time ÷ (workers × iteration wall), P=2 overlap (traced pass)"},
	{"sdfg.fence_stall_ms", "ms", "lower", 0, "Σ pipeline/fence span time, P=2 pipeline (traced pass)"},
	{"sdfg.discarded_tasks", "count", "lower", 0, "pipeline/discard markers, P=2 pipeline (traced pass)"},

	{"dist.phases_iter_ms_p50", "ms", "lower", 0, "median iteration wall, P=2 phases"},
	{"dist.overlap_iter_ms_p50", "ms", "lower", 0, "median iteration wall, P=2 overlap"},
	{"dist.pipeline_iter_ms_p50", "ms", "lower", 0, "median iteration wall, P=2 pipeline depth 2"},
	{"dist.mixed_iter_ms_p50", "ms", "lower", 0, "median iteration wall, P=2 pipeline + mixed precision"},
	{"dist.vs_seq_ratio", "ratio", "lower", 0, "P=2 phases iteration p50 ÷ sequential iteration p50, same process"},
	{"dist.compute_ms_per_iter", "ms", "lower", 0, "IterStats.ComputeNs ÷ iterations, P=2 overlap"},
	{"dist.comm_ms_per_iter", "ms", "lower", 0, "IterStats.CommNs ÷ iterations, P=2 overlap"},
	{"dist.load_imbalance", "ratio", "lower", 0, "max ÷ mean of owned points over Result.Load"},
	{"dist.unattributed_pct", "%", "lower", 0, "rank-0 iteration wall with no layer span active, P=2 phases (traced pass)"},
	{"dist.overlap_unattributed_pct", "%", "lower", 0, "same, P=2 overlap"},
	{"dist.pipeline_unattributed_pct", "%", "lower", 0, "same, P=2 pipeline (window envelopes)"},

	{"plan.probe_ms", "ms", "lower", 0, "plan.Calibrate probe wall"},
	{"plan.choose_ms", "ms", "lower", 0, "plan.Choose wall (what WithAutoPlan adds to New)"},
	{"plan.predict_err_pct", "%", "lower", 0, "|plan.Predict − measured| ÷ measured, P=2 phases iteration"},

	{"qt.new_ms", "ms", "lower", 0, "median qt.NewFromConfig"},
	{"qt.key_us", "us", "lower", 0, "median RunConfig.Key"},
	{"qt.facade_overhead_pct", "%", "lower", 0, "(Start→Wait wall − Σ iteration walls) ÷ wall, untraced reference pass"},
	{"qt.cold_pass_s", "s", "lower", 0, "wall of the discarded warm-up: the campaign's first solve on a cold process"},
	{"device.build_ms", "ms", "lower", 0, "median Spec.Build"},

	{"server.submit_to_done_ms_p50", "ms", "lower", 0, "median client-side POST → `event: done` over slot-consuming (computed or warm-started) runs"},
	{"server.first_row_ms_p50", "ms", "lower", 0, "median POST → first iter frame over computed runs"},
	{"server.cache_hit_ms_p50", "ms", "lower", 0, "median POST → done over cached answers"},
	{"server.cache_hit_ratio", "ratio", "higher", 0, "cache hits ÷ lookups from ServiceStats (exact)"},
	{"server.warm_start_ratio", "ratio", "higher", 0, "warm-started ÷ slot-consuming runs"},
	{"server.warm_iters_saved", "count", "higher", 0, "iterations of warm-started runs below the cold golden count of the same bias"},
	{"server.queue_wait_ms_p50", "ms", "lower", 0, "median record Started − Submitted"},
	{"server.overhead_ms_p50", "ms", "lower", 0, "median client latency − queue wait − record WallNs"},
	{"server.slot_runs", "count", "lower", 0, "ServiceStats.SlotRuns (exact)"},
	{"server.inflight_twins_computed", "count", "lower", 0, "phase-C twins that consumed a slot (exact)"},
	{"server.shed_count", "count", "lower", 0, "HTTP 429 responses"},
	{"server.lost_admissions", "count", "lower", 0, "submissions whose stream ended with the run still queued (dropped by the admission race) and were resubmitted"},
	{"server.registry_reopen_ms", "ms", "lower", 0, "OpenRegistry on the pass's data directory"},
	{"server.registry_bytes_per_run", "bytes", "lower", 0, "data directory bytes ÷ registry records"},
	{"server.metrics_scrape_ms", "ms", "lower", 0, "GET /metrics"},

	{"obs.trace_overhead_pct", "%", "lower", 0, "median iteration wall of the traced pass ÷ the untraced reference pass − 1"},
	{"obs.spans_per_iter", "count", "lower", 0, "solver spans recorded ÷ iterations (traced pass)"},
}

// metricSet collects the values one run measured, plus the prose lines
// of the human-readable report.
type metricSet struct {
	values map[string]float64
	notes  []string
}

func newMetricSet() *metricSet { return &metricSet{values: map[string]float64{}} }

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

func (m *metricSet) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: the contract's result
// object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// export keeps exactly the declared metrics, in their declared units. A
// declared metric the run did not measure reports 0.
func (m *metricSet) export(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}

// undeclared lists values set under names no table declares — a typo
// guard the tests use.
func (m *metricSet) undeclared() []string {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var out []string
	for k := range m.values {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
