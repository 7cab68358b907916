package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/linalg"
	"repro/internal/qt"
)

// solveOutcome is what one solve of a campaign produced and cost.
type solveOutcome struct {
	Job      solveJob
	SetupNs  int64 // wall inside qt.NewFromConfig
	SolveNs  int64 // Start → Wait returned
	Result   *qt.Result
	Err      error
	Resolved qt.RunConfig
}

// pass is the digest of one execution of a workload's campaign (or qtd
// script) that the end-to-end metrics are computed from.
type pass struct {
	SetupS     float64   // Σ set-up wall
	SolveS     float64   // first Start/submit → last result, set-up excluded
	IterMs     []float64 // wall of every iteration of every computed run
	Iterations int
	// RefMs are the host reference timings taken between the pass's
	// solves (ref.go): what the timed metrics are normalised by.
	RefMs []float64

	Solves   []solveOutcome // solve campaigns
	Requests []reqOutcome   // qtd_tenants
	Service  *serviceFacts  // qtd_tenants
}

// runSolve executes one job on a fresh Simulation; rec, when non-nil,
// records bench-side spans around the facade calls.
func runSolve(job solveJob, rec *recorder, parent int) solveOutcome {
	out := solveOutcome{Job: job}
	root := rec.begin(job.Name, "solve", parent)
	defer rec.end(root)

	sp := rec.begin(job.Name, "qt.New", root)
	t0 := time.Now()
	sim, err := qt.NewFromConfig(job.Config)
	out.SetupNs = time.Since(t0).Nanoseconds()
	rec.end(sp)
	if err != nil {
		out.Err = fmt.Errorf("%s: %w", job.Name, err)
		return out
	}
	out.Resolved = sim.Config()
	// An auto-planned configuration installs its GEMM blocking
	// process-wide at New; put the default back once the solve is over so
	// the next job of the pass starts from the same global state whatever
	// the campaign order.
	defer linalg.ResetBlocking()

	sp = rec.begin(job.Name, "start→first-row", root)
	offset := rec.now() // the solver's tracer starts its clock inside Start
	start := time.Now()
	run, err := sim.Start(context.Background())
	if err != nil {
		rec.end(sp)
		out.Err = fmt.Errorf("%s: %w", job.Name, err)
		return out
	}
	<-run.Stats()
	rec.end(sp)
	sp = rec.begin(job.Name, "first-row→wait", root)
	res, err := run.Wait()
	out.SolveNs = time.Since(start).Nanoseconds()
	rec.end(sp)
	out.Result = res
	if err != nil {
		out.Err = fmt.Errorf("%s: %w", job.Name, err)
	}
	if res != nil {
		rec.addProgram(job.Name, offset, res.Spans)
	}
	return out
}

// runCampaignPass executes every job of the campaign once, in order, with
// the solver's own tracing on (qt.WithTrace, through the configuration)
// when traced is set. genNs is the workload-generation time charged to
// the pass's set-up.
func runCampaignPass(jobs []solveJob, genNs int64, rec *recorder, traced bool) pass {
	p := pass{}
	root := rec.begin("pass", "pass", -1)
	defer rec.end(root)
	setup := genNs
	var solve int64
	for _, job := range jobs {
		job.Config.Trace = traced
		p.RefMs = sampleRef(p.RefMs, refBurst)
		o := runSolve(job, rec, root)
		setup += o.SetupNs
		solve += o.SolveNs
		p.Solves = append(p.Solves, o)
		if o.Result == nil {
			continue
		}
		for _, st := range o.Result.Trace {
			p.IterMs = append(p.IterMs, float64(st.WallNs)/1e6)
		}
		p.Iterations += o.Result.Iterations
	}
	p.RefMs = sampleRef(p.RefMs, refBurst)
	p.SetupS = float64(setup) / 1e9
	p.SolveS = float64(solve) / 1e9
	return p
}

// describe is the one-line account of a pass the report prints.
func (p pass) describe() string {
	s := fmt.Sprintf("set-up %.4fs, solve %.3fs, %d iterations, host reference ×%.2f nominal (N=%d)",
		p.SetupS, p.SolveS, p.Iterations, hostFactor(p.RefMs), len(p.RefMs))
	if len(p.Requests) == 0 {
		return s
	}
	classes := map[string]int{}
	for _, o := range p.Requests {
		classes[o.Class]++
	}
	return s + fmt.Sprintf(", %d requests: %d computed, %d warm-started, %d cached, %d failed",
		len(p.Requests), classes[classComputed], classes[classWarm], classes[classCached], classes[classFailed])
}
