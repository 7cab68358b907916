// Command bench is the repository's benchmark: four workloads, four gated
// end-to-end metrics, a per-layer ladder and a traced pass, with every
// output verified. See README.md in this directory for the workloads,
// the metric glossary and how to run it; BENCHMARK.json at the repo root
// is the machine-readable contract, generated from the tables in
// metrics.go and workload.go.
//
//	bash bench/run.sh                                  # every workload, timed + traced
//	bash bench/run.sh --workload iv_gf_bound --trace 1 # one workload's per-layer run
//	bash bench/run.sh --selfcheck                      # two sets, compared against the bounds
//
// One process measures one workload in one mode, so peak RSS and set-up
// are clean; the all-workloads and -selfcheck modes re-execute the
// binary once per run, sequentially.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/linalg"
	"repro/internal/qt"
)

// defaultRunSeconds is how long one run's timed passes measure when
// -seconds is not given; BENCHMARK.json records the same number.
const defaultRunSeconds = 20

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	quick    bool
}

func main() {
	var o options
	var selfcheck, describe, updateGolden bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, one process each)")
	flag.Uint64Var(&o.seed, "seed", 0x5eed, "workload seed: campaign order and qtd script shuffle")
	flag.IntVar(&o.seconds, "seconds", defaultRunSeconds, "how long the timed passes of one run measure")
	flag.IntVar(&o.trace, "trace", 0, "0: timed passes, end-to-end metrics; 1: traced pass and rungs, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event JSON of the traced pass (default .bench_build/trace-<workload>.json)")
	flag.BoolVar(&o.quick, "quick", false, "tiny devices, one timed pass: a smoke run of the whole harness in seconds")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run two full sets and compare every end-to-end metric against its bound")
	flag.BoolVar(&describe, "benchmark-json", false, "print BENCHMARK.json as generated from the metric and workload tables")
	flag.BoolVar(&updateGolden, "update-golden", false, "solve every workload once and print a fresh golden.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	switch {
	case describe:
		b, err := benchmarkJSON(defaultRunSeconds)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	case updateGolden:
		if err := printGolden(); err != nil {
			fatal(err)
		}
	case selfcheck:
		os.Exit(runSelfcheck(o))
	case o.workload == "":
		os.Exit(runAll(o))
	default:
		w, err := findWorkload(o.workload)
		if err != nil {
			fatal(err)
		}
		line, err := runWorkload(w, o)
		if err != nil {
			fatal(err)
		}
		b, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		if !line.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// scratchDir is where a run keeps what it writes: inside the working
// directory, under the one name .gitignore lists.
const scratchDir = ".bench_build"

// runWorkload measures one workload in one mode and returns its result
// line, printing the human-readable report on the way.
func runWorkload(w workload, o options) (resultLine, error) {
	started := time.Now()
	prov := collectProvenance(w.Name, o.seed, o.quick)
	prov.print()
	gold, err := loadGolden()
	if err != nil {
		return resultLine{}, err
	}
	pins := gold.Workloads[w.Name]
	if o.quick {
		pins = nil // the goldens pin the full-size devices
	}

	m := newMetricSet()
	g := &gate{}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		err = runTraced(w, o, m, g, pins)
	} else {
		err = runTimed(w, o, m, g, pins)
	}
	if err != nil {
		return resultLine{}, err
	}
	if u := m.undeclared(); len(u) > 0 {
		return resultLine{}, fmt.Errorf("metrics %v are set but not declared in metrics.go", u)
	}

	for _, n := range m.notes {
		fmt.Println(n)
	}
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.Name, m.values[d.Name], d.Unit)
	}
	share := float64(g.Failed) / float64(max(1, g.Attempted))
	fmt.Printf("%-34s %14.6g ratio  (%d failed of %d attempted)\n", "failed_share", share, g.Failed, g.Attempted)
	for _, f := range g.Failures {
		fmt.Println("FAIL:", f)
	}
	prov.LoadEnd = loadAvg()
	fmt.Printf("# wall=%.1fs load_end=%.2f\n", time.Since(started).Seconds(), prov.LoadEnd)
	// The run itself keeps every core busy, so the average at the end
	// approaches the core count on an otherwise idle host.
	if prov.LoadEnd > float64(prov.Cores)+0.5 {
		fmt.Printf("# WARNING: load average %.2f exceeds %d cores — something else ran beside the benchmark\n", prov.LoadEnd, prov.Cores)
	}
	return resultLine{
		Correct:   g.Failed == 0,
		Attempted: max(1, g.Attempted),
		Failed:    g.Failed,
		Metrics:   m.export(defs),
	}, nil
}

// executePass runs the workload once: the solve campaign, or the qtd
// script against a fresh server.
func executePass(w workload, o options, rec *recorder, traced bool) (pass, error) {
	t0 := time.Now()
	if w.service() {
		script := w.script(o.seed, o.quick)
		return runTenantsPass(script, time.Since(t0).Nanoseconds(), scratchDir, rec)
	}
	jobs := w.campaign(o.seed, o.quick)
	return runCampaignPass(jobs, time.Since(t0).Nanoseconds(), rec, traced), nil
}

func (g *gate) checkPass(w workload, p pass, pins map[string]goldenEntry) {
	if w.service() {
		g.checkTenants(p, pins)
	} else {
		g.checkCampaign(p, pins)
	}
}

// warmUp runs the discarded process warm-up — the campaign's first solve
// (or one solve through a throwaway qtd) — so the first timed pass does
// not pay the process's page faults, heap growth and pool fills.
func warmUp(w workload, o options) (time.Duration, error) {
	if w.service() {
		return warmQtd(w, o.quick, scratchDir)
	}
	t0 := time.Now()
	out := runSolve(w.campaign(o.seed, o.quick)[0], nil, -1)
	return time.Since(t0), out.Err
}

// setupOnce performs one pass's set-up work and nothing else: building
// every Simulation of the campaign, or starting and stopping a server.
func setupOnce(w workload, o options) (float64, error) {
	t0 := time.Now()
	if w.service() {
		_ = w.script(o.seed, o.quick)
		gen := time.Since(t0)
		q, err := startQtd(scratchDir)
		if err != nil {
			return 0, err
		}
		q.stop()
		return (gen + time.Duration(q.setupNs)).Seconds(), nil
	}
	defer linalg.ResetBlocking()
	for _, job := range w.campaign(o.seed, o.quick) {
		if _, err := qt.NewFromConfig(job.Config); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// sampleSetup measures the workload's set-up on its own, after the
// passes. A millisecond of device building is at the mercy of whichever
// GC cycle it meets — single set-ups read 0.7 ms or 2 ms from one call to
// the next, and the median of forty flips with the share that met one — so
// one sample is the mean of enough back-to-back set-ups to last ~20 ms,
// which charges every sample its fair share of collection. A 200 ms
// auto-plan probe is a sample by itself. Sampling stops at 40 samples or
// after 1.5 s (but takes at least four). The host reference is timed
// before and after; refMs returns those timings.
func sampleSetup(w workload, o options) (samples, refMs []float64, err error) {
	refMs = sampleRef(nil, refBurst)
	t0 := time.Now()
	if _, err := setupOnce(w, o); err != nil {
		return nil, nil, err
	}
	// Sized by what a repetition costs in full (a qtd start is followed
	// by a stop that is not set-up but takes longer than it).
	batch := min(50, int(0.020/time.Since(t0).Seconds())+1)
	reps := 40
	if o.quick {
		batch, reps = 1, 2
	}
	for t0 := time.Now(); len(samples) < reps && (len(samples) < 4 || time.Since(t0) < 1500*time.Millisecond); {
		var sum float64
		for i := 0; i < batch; i++ {
			s, err := setupOnce(w, o)
			if err != nil {
				return nil, nil, err
			}
			sum += s
		}
		samples = append(samples, sum/float64(batch))
	}
	return samples, sampleRef(refMs, refBurst), nil
}

// runTimed is the -trace 0 mode: warm-up, timed untraced passes for the
// time budget, extra set-up repetitions, and the end-to-end metrics as
// medians.
func runTimed(w workload, o options, m *metricSet, g *gate, pins map[string]goldenEntry) error {
	minPasses := 2 // the floor when a pass outlasts half the budget
	if o.quick {
		minPasses = 1
	}
	warm, err := warmUp(w, o)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var passes []pass
	for {
		p, err := executePass(w, o, nil, false)
		if err != nil {
			return err
		}
		g.checkPass(w, p, pins)
		m.note("timed: pass %d — %s", len(passes)+1, p.describe())
		// Keep the digest only: the results (observables, final Σ state)
		// of every pass would otherwise grow the heap with the pass count
		// and make peak_rss_mb a function of how long the run was.
		p.Solves, p.Requests, p.Service = nil, nil, nil
		passes = append(passes, p)
		elapsed := time.Since(start)
		// Start another pass only if it is likely to end within the
		// budget (15% grace), so a run measures for about -seconds.
		next := elapsed + elapsed/time.Duration(len(passes))
		if len(passes) >= minPasses && (o.quick || float64(next) > 1.15*float64(budget)) {
			break
		}
	}
	runtime.ReadMemStats(&m1)

	// How fast the host ran while the passes were measured (ref.go): one
	// factor for the run, from every reference sample of every pass.
	var passSetup, solve, iterMs, refMs []float64
	iterations := 0
	for _, p := range passes {
		passSetup = append(passSetup, p.SetupS)
		solve = append(solve, p.SolveS)
		iterMs = append(iterMs, p.IterMs...)
		refMs = append(refMs, p.RefMs...)
		iterations += p.Iterations
	}
	setup, setupRef, err := sampleSetup(w, o)
	if err != nil {
		return fmt.Errorf("set-up repetition: %w", err)
	}
	if iterations == 0 {
		return fmt.Errorf("%s: no iterations measured", w.Name)
	}

	m.note("timed: warm-up %.2fs, then %d untraced passes in %.1fs (%d iterations)", warm.Seconds(), len(passes), time.Since(start).Seconds(), iterations)
	// One host factor for the run, from every reference sample taken
	// while it measured: a few dozen samples of the two-mode reference are
	// noisier than the timings they would correct.
	refMs = append(refMs, setupRef...)
	factor := hostFactor(refMs)
	report := func(name string, xs []float64) {
		s := summarize(xs)
		m.set(name, s.Med/factor)
		tail := ""
		if s.TailP > 0 {
			tail = fmt.Sprintf("  p%d %.6g", s.TailP, s.Tail)
		}
		m.note("%-12s median %.6g  quartiles [%.6g, %.6g] (%.1f%% of the median)  range [%.6g, %.6g]  N=%d%s  → normalised %.6g",
			name, s.Med, s.Q1, s.Q3, 100*s.spread(), s.Min, s.Max, s.N, tail, s.Med/factor)
	}
	m.note("timed: set-up inside the passes, one sample per pass: median %.6g s", median(passSetup))
	m.note("timed: the host ran the reference kernel at ×%.3f nominal (mean of %d samples, ref.go); as measured, then normalised (÷ %.3f):", factor, len(refMs), factor)
	report("setup_s", setup)
	report("solve_s", solve)
	report("iter_ms_p50", iterMs)
	m.set("alloc_mb_per_iter", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(iterations))
	m.note("timed: peak RSS (VmHWM) %.1f MB — not gated, see host.peak_rss_mb", peakRSSMB())
	return nil
}

// runTraced is the -trace 1 mode: warm-up, one untraced reference pass
// (exact counts, per-schedule medians, the base the tracing overhead is
// measured against), one traced pass, the in-situ loop and the rungs.
func runTraced(w workload, o options, m *metricSet, g *gate, pins map[string]goldenEntry) error {
	warm, err := warmUp(w, o)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	m.set("qt.cold_pass_s", warm.Seconds())

	ref, err := executePass(w, o, nil, false)
	if err != nil {
		return err
	}
	g.checkPass(w, ref, pins)
	m.set("host.peak_rss_mb", peakRSSMB())

	rec := newRecorder()
	traced, err := executePass(w, o, rec, true)
	if err != nil {
		return err
	}
	g.checkPass(w, traced, nil) // a traced configuration is its own artifact; the cross-checks still apply
	// Iteration medians, not the two pass walls: one pass against one
	// pass would mostly measure how the host's speed drifted between them.
	if base := median(ref.IterMs); base > 0 {
		m.set("obs.trace_overhead_pct", 100*(median(traced.IterMs)/base-1))
	}
	m.note("traced: warm-up %.2fs; untraced reference pass solve_s %.3f; traced pass solve_s %.3f", warm.Seconds(), ref.SolveS, traced.SolveS)

	// Facade overhead and the sequential iteration count, off the
	// untraced pass.
	var wallNs, iterNs int64
	seqIters := 0
	for _, s := range ref.Solves {
		if s.Result == nil {
			continue
		}
		wallNs += s.SolveNs
		for _, st := range s.Result.Trace {
			iterNs += st.WallNs
		}
		if s.Job.Config.Ranks == 0 {
			seqIters += s.Result.Iterations
		}
	}
	if wallNs > 0 {
		m.set("qt.facade_overhead_pct", 100*float64(wallNs-iterNs)/float64(wallNs))
	}

	// The in-situ loop and the rungs run on the workload's own device,
	// inside a reserved worker slot like every solver pool worker, so a
	// kernel call sees the thread budget it sees in a real solve.
	base := w.baseConfig(o.quick)
	base.Spec.Bias = 0.3
	dev, err := base.Spec.Build()
	if err != nil {
		return err
	}
	n, err := inSitu(m, dev, base, rec)
	g.check(err == nil, "in-situ loop: %v", err)
	if seqIters == 0 {
		seqIters = n // qtd_tenants: its sequential runs live behind HTTP
	}
	m.set("negf.iters_to_converge", float64(seqIters))

	// Solver-side spans. qtd_tenants keeps server-side tracing off (it
	// would change every cache key), so its shares come from one traced
	// in-process solve of the same device.
	shareSolves := traced.Solves
	if w.service() {
		rc := base
		rc.Trace = true
		out := runSolve(solveJob{Name: "seq", Config: rc}, rec, -1)
		g.check(out.Err == nil, "traced solve: %v", out.Err)
		shareSolves = []solveOutcome{out}
	}
	sequentialShares(m, shareSolves)

	// each is how long a timing rung keeps repeating its call.
	each := 150 * time.Millisecond
	if o.quick {
		each = 10 * time.Millisecond
	}
	release := linalg.ReserveWorker()
	kernelRungs(m, dev, each)
	err = solverRungs(m, dev, each)
	tileRungs(m, dev, each)
	release()
	g.check(err == nil, "solver rungs: %v", err)
	err = facadeRungs(m, base, each)
	g.check(err == nil, "facade rungs: %v", err)

	phasesMs := 0.0
	switch w.Name {
	case "dist_schedules":
		phasesMs = distributedCounts(m, ref.Solves)
		distributedShares(m, traced.Solves)
	case "qtd_tenants":
		serverLayer(m, ref, pins)
		for _, r := range ref.Requests {
			if r.Req.Name == "p2/phases" && r.Record.Report != nil {
				phasesMs = iterP50(r.Record.Report.Trace)
			}
		}
	}
	if w.Name == "dist_schedules" || w.service() {
		for _, err := range []error{exchangeRungs(m, dev, each), executorRung(m, dev, each), planRungs(m, dev, phasesMs)} {
			g.check(err == nil, "%v", err)
		}
	}

	// Last: the copy arrays are the one large allocation of the run, and
	// the pages they leave behind for the scavenger would tax every rung
	// after them (a fresh page costs tens of microseconds on a VM).
	hostRungs(m)

	out := o.traceOut
	if out == "" {
		out = filepath.Join(scratchDir, "trace-"+w.Name+".json")
	}
	if err := rec.writeChrome(out); err != nil {
		return err
	}
	spans := rec.snapshot()
	self := selfTimes(spans)
	var rootNs, selfNs int64
	for _, s := range spans {
		if s.Parent < 0 {
			rootNs += s.End - s.Start
		}
		selfNs += self[s.ID]
	}
	m.note("traced: %d bench-side spans written to %s; Σ self times %.1f ms over root spans %.1f ms (equal when nothing overlaps; the ratio is the mean concurrency of the clients)",
		len(spans), out, float64(selfNs)/1e6, float64(rootNs)/1e6)
	return nil
}

// serverLayer derives the qtd metrics of one pass from the client's view
// and the records the server returned.
func serverLayer(m *metricSet, p pass, pins map[string]goldenEntry) {
	var firstRow, hit, queueWait, overhead, latency []float64
	var warm, slot, twins, shed, saved, lost int
	for _, o := range p.Requests {
		if o.Status == 429 {
			shed++
		}
		lost += o.Lost
		switch o.Class {
		case classCached:
			hit = append(hit, float64(o.LatencyNs)/1e6)
		case classComputed, classWarm:
			slot++
			rec := o.Record
			latency = append(latency, float64(o.LatencyNs)/1e6)
			if o.FirstNs > 0 {
				firstRow = append(firstRow, float64(o.FirstNs)/1e6)
			}
			wait := rec.Started.Sub(rec.Submitted)
			queueWait = append(queueWait, ms(wait))
			overhead = append(overhead, float64(o.LatencyNs-wait.Nanoseconds()-rec.WallNs)/1e6)
			if o.Req.Name == "twin" {
				twins++
			}
			if o.Class == classWarm {
				warm++
				if e, ok := pins[strings.TrimPrefix(o.Req.Name, "dup:")]; ok && e.Iterations > rec.Iterations {
					saved += e.Iterations - rec.Iterations
				}
			}
		}
	}
	m.set("server.submit_to_done_ms_p50", median(latency))
	m.set("server.first_row_ms_p50", median(firstRow))
	m.set("server.cache_hit_ms_p50", median(hit))
	m.set("server.queue_wait_ms_p50", median(queueWait))
	m.set("server.overhead_ms_p50", median(overhead))
	m.set("server.warm_start_ratio", float64(warm)/float64(max(1, slot)))
	m.set("server.warm_iters_saved", float64(saved))
	m.set("server.inflight_twins_computed", float64(twins))
	m.set("server.shed_count", float64(shed))
	m.set("server.lost_admissions", float64(lost))
	if f := p.Service; f != nil {
		c := f.Stats.Cache
		m.set("server.cache_hit_ratio", float64(c.Hits)/float64(max(1, c.Hits+c.Misses)))
		m.set("server.slot_runs", float64(f.Stats.SlotRuns))
		m.set("server.registry_reopen_ms", float64(f.ReopenNs)/1e6)
		m.set("server.registry_bytes_per_run", float64(f.RegistryBytes)/float64(max(1, f.RegistryRecords)))
		m.set("server.metrics_scrape_ms", float64(f.ScrapeNs)/1e6)
		m.note("server: %d requests → %d slot runs (%d warm-started), %d cached; cache %d hits / %d misses; registry %d records, %d bytes",
			len(p.Requests), f.Stats.SlotRuns, warm, len(hit), c.Hits, c.Misses, f.RegistryRecords, f.RegistryBytes)
	}
}

// childRun re-executes the binary for one workload in one mode and
// returns the result line it printed last.
func childRun(o options, workload string, trace int, echo bool) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace),
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	text := strings.TrimRight(string(out), "\n")
	if echo {
		fmt.Println(text)
	}
	last := text[strings.LastIndex(text, "\n")+1:]
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return resultLine{}, fmt.Errorf("%s -trace %d: no result line (%v; exit: %v)", workload, trace, err, runErr)
	}
	return line, nil
}

// runAll measures every workload, timed then traced, one process each.
func runAll(o options) int {
	exit := 0
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			fmt.Printf("\n=== %s  -trace %d ===\n", w.Name, trace)
			line, err := childRun(o, w.Name, trace, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				exit = 1
				continue
			}
			if !line.Correct {
				exit = 1
			}
		}
	}
	return exit
}

// runSelfcheck runs two full sets of timed runs back to back and reports,
// per end-to-end metric × workload, both medians, their difference and
// the bound. It fails if any pair disagrees by more than its bound —
// the same code measured twice must read as "unchanged".
func runSelfcheck(o options) int {
	sets := make([]map[string]resultLine, 2)
	for i := range sets {
		sets[i] = map[string]resultLine{}
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "selfcheck: set %d, %s\n", i+1, w.Name)
			line, err := childRun(o, w.Name, 0, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			sets[i][w.Name] = line
		}
	}
	exit := 0
	fmt.Printf("%-16s %-24s %12s %12s %9s %7s  %s\n", "workload", "metric", "set 1", "set 2", "diff", "bound", "verdict")
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-16s correctness failed (set 1: %d/%d, set 2: %d/%d)\n", w.Name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			exit = 1
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / va
			}
			verdict := "ok"
			if diff > d.Bound || diff < -d.Bound {
				verdict = "DISAGREE"
				exit = 1
			}
			fmt.Printf("%-16s %-24s %12.6g %12.6g %+8.1f%% %6.0f%%  %s\n", w.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return exit
}

// printGolden solves every workload's jobs once and prints golden.json.
// The qtd_tenants pins are the cold solves of the same configurations
// the script submits.
func printGolden() error {
	out := goldenFile{
		Note:      "converged current and iteration count of every job at structure seed 0x5eed; regenerate with -update-golden only when the physics is meant to change",
		Workloads: map[string]map[string]goldenEntry{},
	}
	for _, w := range workloads {
		pins := map[string]goldenEntry{}
		var jobs []solveJob
		if w.service() {
			seen := map[string]bool{}
			for _, r := range w.script(0x5eed, false) {
				if !seen[r.Name] && !strings.HasPrefix(r.Name, "dup:") {
					seen[r.Name] = true
					jobs = append(jobs, solveJob{Name: r.Name, Config: r.Config})
				}
			}
		} else {
			jobs = w.jobs(false)
		}
		for _, job := range jobs {
			o := runSolve(job, nil, -1)
			if o.Err != nil {
				return o.Err
			}
			e := goldenEntry{Current: o.Result.Current, Iterations: o.Result.Iterations}
			switch {
			case job.Config.Precision == "mixed":
				e.Tol = 1e-6 // binary16 rounding differs with the exchange order
			case w.service() && job.Config.Ranks == 0:
				// May be warm-started from whichever bias neighbour
				// finished first: the same fixed point to within a few
				// times the loop tolerance.
				e.Tol = 1e-3
			}
			pins[job.Name] = e
			fmt.Fprintf(os.Stderr, "golden: %s %s current=%.15g iterations=%d\n", w.Name, job.Name, e.Current, e.Iterations)
		}
		out.Workloads[w.Name] = pins
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
