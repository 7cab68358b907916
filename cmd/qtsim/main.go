// Command qtsim runs a complete self-consistent electro-thermal quantum
// transport simulation (GF ↔ SSE to convergence) through the qt facade
// and reports the physical observables of Fig. 11: contact and
// interface currents, energy currents, dissipated power, and the
// atomically resolved lattice temperature.
//
// The solver matrix is fully reachable: -ranks 0 runs without ranks (the
// one-rank window graph, where -kernel selects the SSE variant), -ranks P
// on P simulated ranks (with -schedule phases|overlap|pipeline and -depth
// for the pipelined window). -autoplan resolves the plan by rule —
// GOMAXPROCS ÷ ranks workers per rank, at least one, at window depth 1
// (plan.Rule) — and the resolved plan prints in the report header.
// -format text|json|csv selects the report encoding (internal/report,
// keyed on the facade's unified per-iteration telemetry schema).
//
// Device-zoo runs load a declarative disorder profile with -profile
// FILE (JSON device.Profile: regions, gates, doping, vacancies, strain)
// and pick the realization with -dseed. -ensemble N averages N
// realizations (seeds dseed..dseed+N-1) and reports the Welford-reduced
// mean/variance/CI ensemble schema instead of a single run.
//
// Example:
//
//	qtsim -na 24 -bnum 6 -norb 2 -ne 24 -nw 4 -vds 0.3 -coupling 0.12
//	qtsim -ranks 4 -schedule overlap -format json
//	qtsim -profile device.json -dseed 42 -ensemble 16 -format csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/device"
	"repro/internal/ensemble"
	"repro/internal/obs"
	"repro/internal/qt"
	"repro/internal/report"
)

func main() {
	na := flag.Int("na", 24, "number of atoms")
	bnum := flag.Int("bnum", 6, "number of slabs (blocks)")
	norb := flag.Int("norb", 2, "orbitals per atom")
	nkz := flag.Int("nkz", 3, "momentum points")
	ne := flag.Int("ne", 24, "energy points")
	nw := flag.Int("nw", 4, "phonon frequencies")
	vds := flag.Float64("vds", 0.3, "drain-source bias (eV)")
	tc := flag.Float64("tc", 300, "contact temperature (K)")
	coupling := flag.Float64("coupling", 0.12, "electron-phonon coupling strength")
	kernel := flag.String("kernel", "dace", "SSE kernel: omen | dace | mixed")
	iters := flag.Int("maxiter", 25, "maximum self-consistent iterations")
	tol := flag.Float64("tol", 1e-5, "relative current change at convergence")
	seed := flag.Uint64("seed", 0x5eed, "structure seed")
	profileFile := flag.String("profile", "", "JSON device profile (regions, gates, doping, vacancies, strain)")
	dseed := flag.Uint64("dseed", 1, "disorder realization seed (requires -profile)")
	members := flag.Int("ensemble", 0, "average N disorder realizations, seeds dseed..dseed+N-1 (requires -profile)")
	ranks := flag.Int("ranks", 0, "simulated MPI world size (0 = no ranks: one in-process rank)")
	schedule := flag.String("schedule", "phases", "distributed schedule: phases | overlap | pipeline")
	depth := flag.Int("depth", 0, "pipelined-iteration window depth (with -schedule pipeline; 0 = solver default)")
	autoplan := flag.Bool("autoplan", false, "resolve the plan by rule: GOMAXPROCS/ranks workers per rank at window depth 1 (requires -ranks)")
	format := flag.String("format", "text", "output format: text, json, or csv")
	traceFile := flag.String("trace", "", "record per-phase spans and write Chrome trace-event JSON to FILE (load in Perfetto)")
	metrics := flag.Bool("metrics", false, "print a Prometheus-text snapshot of the run's counters to stderr")
	flag.Parse()

	f, err := report.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtsim:", err)
		os.Exit(2)
	}

	spec := qt.Spec{
		Atoms: *na, Slabs: *bnum, Orbitals: *norb,
		MomentumPoints: *nkz, EnergyPoints: *ne, PhononModes: *nw,
		Temperature: *tc, Coupling: *coupling, Seed: *seed,
	}
	if *profileFile != "" {
		raw, err := os.ReadFile(*profileFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qtsim:", err)
			os.Exit(2)
		}
		var pr device.Profile
		if err := json.Unmarshal(raw, &pr); err != nil {
			fmt.Fprintf(os.Stderr, "qtsim: parse %s: %v\n", *profileFile, err)
			os.Exit(2)
		}
		spec.Profile = &pr
		spec.DisorderSeed = *dseed
	} else if *members > 0 {
		fmt.Fprintln(os.Stderr, "qtsim: -ensemble requires -profile (a clean device has nothing to average over)")
		os.Exit(2)
	}
	// The flags are already in wire spelling: fill the configuration a
	// request body would and build it the way qtd does. -kernel mixed is
	// precision shorthand; under -autoplan the rule owns the plan knobs,
	// so -schedule and -depth are not carried (next to auto_plan a schedule
	// would read as a recorded plan); without -ranks they do not apply.
	rc := qt.RunConfig{
		Spec: spec, Ranks: *ranks,
		MaxIterations: *iters, Tolerance: *tol,
		AutoPlan: *autoplan, Trace: *traceFile != "",
	}
	if *kernel == "mixed" {
		rc.Precision = *kernel
	} else {
		rc.Kernel = *kernel
	}
	if *ranks > 0 && !*autoplan {
		rc.Schedule, rc.PipelineDepth = *schedule, *depth
	}
	// An explicit -vds 0 has no wire form (a zero Spec.Bias is the default).
	bias := qt.WithBias(*vds)

	if *members > 0 {
		runEnsemble(rc, bias, *members, *dseed, f)
		return
	}

	sim, err := qt.NewFromConfig(rc, bias)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtsim:", err)
		os.Exit(2)
	}

	start := time.Now()
	run, err := sim.Start(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtsim:", err)
		os.Exit(1)
	}
	res, err := run.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtsim:", err)
		os.Exit(1)
	}

	wall := time.Since(start)

	if *traceFile != "" {
		if err := writeTrace(*traceFile, res); err != nil {
			fmt.Fprintln(os.Stderr, "qtsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "qtsim: wrote %d spans to %s\n", len(res.Spans.Spans), *traceFile)
	}
	if *metrics {
		printMetrics(res, wall)
	}

	if err := report.Write(os.Stdout, f, report.NewRun(sim, res, wall.Nanoseconds())); err != nil {
		fmt.Fprintln(os.Stderr, "qtsim:", err)
		os.Exit(1)
	}
	if f == report.Text {
		printPanels(sim, res)
	}
}

// runEnsemble drives an N-realization study in-process and writes the
// Welford-reduced ensemble report; member progress streams on stderr.
func runEnsemble(rc qt.RunConfig, bias qt.Option, members int, baseSeed uint64, f report.Format) {
	st := &ensemble.Study{
		Config: rc, Members: members, BaseSeed: baseSeed,
		Exec: ensemble.Local(bias),
		OnMember: func(m ensemble.Member) {
			status := "failed"
			if m.Err == nil && m.Result != nil {
				status = fmt.Sprintf("I=%.8g iters=%d converged=%v",
					m.Result.Current, m.Result.Iterations, m.Result.Converged)
			}
			fmt.Fprintf(os.Stderr, "qtsim: member %d (seed %d): %s\n", m.Index, m.Seed, status)
		},
	}
	res, err := st.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtsim:", err)
		os.Exit(1)
	}
	if err := report.Write(os.Stdout, f, res.Report); err != nil {
		fmt.Fprintln(os.Stderr, "qtsim:", err)
		os.Exit(1)
	}
}

// writeTrace exports the run's span recording as Chrome trace-event JSON.
func writeTrace(path string, res *qt.Result) error {
	if res.Spans == nil {
		return fmt.Errorf("run recorded no spans")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Spans.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printMetrics renders the run's counters in Prometheus text form on
// stderr — the same exposition qtd serves on /metrics, for one-shot runs.
func printMetrics(res *qt.Result, wall time.Duration) {
	r := obs.NewRegistry()
	r.GaugeFunc("qtsim_run_duration_seconds", "Run wall time.",
		func() float64 { return wall.Seconds() })
	r.GaugeFunc("qtsim_iterations", "Self-consistent iterations executed.",
		func() float64 { return float64(res.Iterations) })
	r.GaugeFunc("qtsim_converged", "1 when the run reached tolerance.",
		func() float64 {
			if res.Converged {
				return 1
			}
			return 0
		})
	sse := r.Counter("qtsim_sse_bytes_total", "Distributed SSE exchange traffic (wire bytes).")
	red := r.Counter("qtsim_reduce_bytes_total", "Observable-reduction traffic (bytes).")
	fbk := r.Counter("qtsim_fallback_blocks_total", "Mixed-precision segments shipped as verbatim fp64.")
	for _, st := range res.Trace {
		sse.Add(float64(st.SSEBytes))
		red.Add(float64(st.ReduceBytes))
		fbk.Add(float64(st.FallbackBlocks))
	}
	r.WritePrometheus(os.Stderr)
}

// printPanels renders the text-only ASCII panels: the local density of
// states and the atomic temperature map.
func printPanels(sim *qt.Simulation, res *qt.Result) {
	obs := res.Observables
	p := sim.Device.P
	var dosMax float64
	for _, dos := range obs.LDOS {
		for _, v := range dos {
			if v > dosMax {
				dosMax = v
			}
		}
	}
	if dosMax > 0 {
		fmt.Println("\nlocal density of states (rows = E descending, cols = slabs; '#' ∝ weight):")
		for n := p.NE - 1; n >= 0; n-- {
			fmt.Printf("  E=%+5.2f ", p.Energy(n))
			for i := 0; i < p.Bnum; i++ {
				c := " "
				switch w := obs.LDOS[i][n] / dosMax; {
				case w > 0.6:
					c = "#"
				case w > 0.25:
					c = "+"
				case w > 0.05:
					c = "."
				}
				fmt.Print(c)
			}
			fmt.Println()
		}
	}

	rows := p.AtomsPerSlab()
	if len(obs.AtomTemperature) < rows*p.Bnum {
		return
	}
	fmt.Println("\natomic temperature map (x = slab, y = row):")
	for r := rows - 1; r >= 0; r-- {
		for sInd := 0; sInd < p.Bnum; sInd++ {
			fmt.Printf(" %5.0f", obs.AtomTemperature[sInd*rows+r])
		}
		fmt.Println()
	}
}
