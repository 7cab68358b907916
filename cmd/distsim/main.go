// Command distsim runs the distributed self-consistent NEGF solver
// through the qt facade across a sweep of simulated MPI world sizes and
// reports, per iteration, the measured communication volume of the SSE
// exchange next to the analytic prediction of the paper's model
// (internal/model/commvol.go) — the executable form of the scaling story
// the paper tells for the full GF↔SSE loop.
//
// Three sweep modes (combine with commas, or use "all"):
//
//   - strong:  a fixed structure solved on P ∈ {1, 2, 4, 8} ranks; the
//     global contact current must be invariant (printed for inspection)
//     while the per-rank work shrinks.
//   - weak:    the energy grid grows with P (NE = ne·P), keeping the
//     per-rank GF work constant while the exchange volume grows.
//   - overlap: each world size runs the iteration graph twice — in
//     bulk-synchronous order on one worker per rank (phases) vs on a
//     work-stealing pool (overlap, internal/sdfg) — and the
//     measured per-iteration makespans are compared against the
//     internal/stream copy/compute-overlap prediction built from the
//     measured compute/communication split.
//
// -precision mixed threads the §5.4 mixed-precision path through every
// sweep: the SSE tiles run the normalized binary16 kernel and the four
// Alltoallv exchanges ship half-width split-complex wire payloads. Each
// world size then also runs the fp64 baseline at the identical
// decomposition, and the report gains the measured fp64→mixed volume
// reduction, the per-iteration Σ≷/Π≷ quantization deviation (error
// probe), and the current check against the sequential fp64 solver
// under the documented dist.MixedCurrentTol.
//
// Output formats: -format text (human tables), json, or csv — the
// shared encoders of internal/report, keyed on the facade's unified
// per-iteration telemetry schema.
//
// Example:
//
//	distsim -mode strong,overlap -na 24 -bnum 4 -norb 2 -ne 16 -nw 4 -iters 3
//	distsim -mode strong -precision mixed -iters 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/qt"
	"repro/internal/report"
	"repro/internal/stream"
)

func main() {
	mode := flag.String("mode", "strong,weak", "comma-separated sweep modes: strong, weak, overlap (or all)")
	format := flag.String("format", "text", "output format: text, json, or csv")
	na := flag.Int("na", 24, "atoms")
	bnum := flag.Int("bnum", 4, "slabs")
	norb := flag.Int("norb", 2, "orbitals per atom")
	nkz := flag.Int("nkz", 3, "momentum points")
	ne := flag.Int("ne", 16, "energy points (per rank in weak mode)")
	nw := flag.Int("nw", 4, "phonon frequency points")
	iters := flag.Int("iters", 3, "self-consistent iterations per run")
	ranks := flag.String("ranks", "1,2,4,8", "comma-separated world sizes")
	workers := flag.Int("workers", 2, "per-rank worker pool of the overlapped schedule")
	verify := flag.Bool("verify", true, "check currents against the sequential solver (strong mode)")
	precFlag := flag.String("precision", "fp64", "SSE precision: fp64, or mixed (binary16 tile kernel + half-width wire payloads, with an fp64 baseline run per world size for the volume/error columns)")
	flag.Parse()

	prec, err := qt.ParsePrecision(*precFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distsim:", err)
		os.Exit(1)
	}
	f, err := report.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distsim:", err)
		os.Exit(1)
	}

	modes := map[string]bool{}
	for _, m := range strings.Split(*mode, ",") {
		m = strings.TrimSpace(m)
		if m == "all" {
			modes["strong"], modes["weak"], modes["overlap"] = true, true, true
			continue
		}
		if m != "strong" && m != "weak" && m != "overlap" && m != "both" {
			fmt.Fprintf(os.Stderr, "distsim: unknown mode %q (want strong, weak, overlap, or all)\n", m)
			os.Exit(1)
		}
		if m == "both" { // backwards-compatible alias
			modes["strong"], modes["weak"] = true, true
			continue
		}
		modes[m] = true
	}
	ps, err := parseRanks(*ranks)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	spec := qt.Spec{
		Atoms: *na, Slabs: *bnum, Orbitals: *norb,
		MomentumPoints: *nkz, EnergyPoints: *ne, PhononModes: *nw,
	}

	rep := &report.Scaling{Meta: report.Meta{
		Atoms: *na, Slabs: *bnum, Orbitals: *norb,
		MomentumPoints: *nkz, EnergyPoints: *ne, PhononModes: *nw,
		Iterations: *iters, Workers: *workers, Precision: prec.String(),
	}}
	if modes["strong"] {
		rep.Strong = runScaleSweep(rep, "strong", spec, ps, *iters, *verify, prec,
			func(s qt.Spec, _ int) qt.Spec { return s })
	}
	if modes["weak"] {
		rep.Weak = runScaleSweep(rep, "weak", spec, ps, *iters, false, prec,
			func(s qt.Spec, ranks int) qt.Spec {
				s.EnergyPoints = spec.EnergyPoints * ranks
				return s
			})
	}
	if modes["overlap"] {
		rep.Overlap = runOverlapSweep(spec, ps, *iters, *workers, prec)
	}

	if err := report.Write(os.Stdout, f, rep); err != nil {
		fmt.Fprintln(os.Stderr, "distsim:", err)
		os.Exit(1)
	}
}

func parseRanks(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("distsim: bad rank count %q", f)
		}
		out = append(out, p)
	}
	return out, nil
}

// solve runs one facade configuration to completion and returns its
// result (converged or capped — the sweeps measure, they do not wait
// for convergence).
func solve(spec qt.Spec, opts ...qt.Option) (*qt.Simulation, *qt.Result) {
	sim, err := qt.New(spec, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distsim:", err)
		os.Exit(1)
	}
	run, err := sim.Start(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "distsim:", err)
		os.Exit(1)
	}
	res, err := run.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "distsim:", err)
		os.Exit(1)
	}
	return sim, res
}

// measureOpts is the shared option set of every sweep point: run all
// iterations (we are measuring, not converging) at the requested world
// size and precision.
func measureOpts(p, iters int, prec qt.Precision, probe bool) []qt.Option {
	opts := []qt.Option{
		qt.WithRanks(p),
		qt.WithMaxIterations(iters),
		qt.WithTolerance(1e-300),
		qt.WithPrecision(prec),
	}
	if probe {
		opts = append(opts, qt.WithErrorProbe())
	}
	return opts
}

// runScaleSweep executes the distributed loop for every world size and
// returns the measured-vs-modelled rows.
func runScaleSweep(rep *report.Scaling, sweep string, base qt.Spec, ranks []int, iters int,
	verify bool, prec qt.Precision, scale func(qt.Spec, int) qt.Spec) []report.ScaleRow {

	mixed := prec == qt.Mixed
	var rows []report.ScaleRow
	var refCurrent float64
	haveRef := false
	for _, p := range ranks {
		sp := scale(base, p)
		sim, res := solve(sp, measureOpts(p, iters, prec, mixed)...)

		agg := report.PerIter(res.Trace)
		n := int64(len(res.Trace))
		rep.AlltoallvPerIter = res.Comm.Collectives["Alltoallv"] / n
		last := res.Trace[len(res.Trace)-1]
		ta, te := sim.Tiles()
		modelled := model.DaCeCommVolume(sim.Device.P, ta, te)
		if mixed {
			modelled = model.DaCeCommVolumeMixed(sim.Device.P, ta, te)
		}
		row := report.ScaleRow{
			Sweep: sweep, P: p, Ta: ta, TE: te,
			Precision:    prec.String(),
			Current:      last.Current,
			SSEMeasBytes: agg.SSEBytes, SSEModelBytes: int64(modelled),
			Ratio:       float64(agg.SSEBytes) / modelled,
			ReduceBytes: agg.ReduceBytes,
			WallNs:      agg.WallNs,
			RelVsSeq:    -1,
			SigmaErr:    agg.MaxSigmaErr,
		}
		if mixed {
			// The volume column needs the fp64 baseline at the identical
			// decomposition: run it and compare measured exchange bytes.
			_, fpRes := solve(sp, measureOpts(p, iters, qt.FP64, false)...)
			row.FP64SSEBytes = report.PerIter(fpRes.Trace).SSEBytes
			if row.SSEMeasBytes > 0 {
				row.VolumeRatio = float64(row.FP64SSEBytes) / float64(row.SSEMeasBytes)
			}
		}
		if verify {
			if !haveRef {
				_, seq := solve(sp, qt.WithMaxIterations(iters), qt.WithTolerance(1e-300))
				refCurrent = seq.Trace[len(seq.Trace)-1].Current
				haveRef = true
			}
			row.RelVsSeq = relDiff(last.Current, refCurrent)
		}
		rows = append(rows, row)
	}
	return rows
}

// runOverlapSweep is the schedule A/B experiment: for every world size,
// run the same iteration graph in phase order on one worker and
// overlapped on a pool, compare measured per-iteration makespans, and set the result
// against the internal/stream prediction derived from the measured
// compute/communication split.
func runOverlapSweep(base qt.Spec, ranks []int, iters, workers int, prec qt.Precision) []report.OverlapRow {
	var rows []report.OverlapRow
	for _, p := range ranks {
		_, pres := solve(base, measureOpts(p, iters, prec, false)...)
		_, ores := solve(base, append(measureOpts(p, iters, prec, false),
			qt.WithSchedule(qt.Overlap), qt.WithWorkers(workers))...)

		maxRel := 0.0
		for i := range ores.Trace {
			if rel := relDiff(ores.Trace[i].Current, pres.Trace[i].Current); rel > maxRel {
				maxRel = rel
			}
		}
		pAgg, oAgg := report.PerIter(pres.Trace), report.PerIter(ores.Trace)

		// Stream-model prediction: rank 0's measured per-iteration compute
		// spread over its points, with the measured communication share as
		// the copy fraction; full pipelining bounds the attainable gain.
		points := ores.Load[0].Pairs + ores.Load[0].Points
		frac := 0.0
		if oAgg.ComputeNs > 0 {
			frac = float64(oAgg.CommNs) / float64(oAgg.ComputeNs)
		}
		tasks := stream.GFTaskSet(points, float64(oAgg.ComputeNs)/1e9, frac)
		pred := stream.Makespan(tasks, 1) / stream.Makespan(tasks, 32)

		rows = append(rows, report.OverlapRow{
			P: p, Workers: workers,
			PhasesWallNs: pAgg.WallNs, OverlapWallNs: oAgg.WallNs,
			Speedup:   float64(pAgg.WallNs) / float64(oAgg.WallNs),
			ComputeNs: oAgg.ComputeNs, CommNs: oAgg.CommNs,
			StreamPredGain: pred,
			MaxRelDiff:     maxRel,
		})
	}
	return rows
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return d
	}
	return d / m
}
