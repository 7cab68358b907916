package qt

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestPipelineThroughFacade runs the pipelined schedule end to end via
// the facade and pins the 1e-12 equivalence against the sequential
// solver, plus the plan announcement on the first streamed row.
func TestPipelineThroughFacade(t *testing.T) {
	const iters = 3
	_, seq := solve(t, RunConfig{Spec: smallSpec(), MaxIterations: iters, Tolerance: 1e-300})
	sim, res := solve(t, RunConfig{Spec: smallSpec(), Ranks: 4, Schedule: "pipeline",
		PipelineDepth: 2, Workers: 2, MaxIterations: iters, Tolerance: 1e-300})
	if len(res.Trace) != iters {
		t.Fatalf("pipeline ran %d iterations, want %d", len(res.Trace), iters)
	}
	for i := range res.Trace {
		rel := math.Abs(res.Trace[i].Current-seq.Trace[i].Current) /
			math.Abs(seq.Trace[i].Current)
		if rel > 1e-12 {
			t.Errorf("iter %d: pipeline %.17g vs sequential %.17g (rel %.3g)",
				i, res.Trace[i].Current, seq.Trace[i].Current, rel)
		}
	}
	if want := "pipeline w=2 d=2"; sim.PlanString() != want {
		t.Errorf("PlanString() = %q, want %q", sim.PlanString(), want)
	}
	if res.Trace[0].Plan != sim.PlanString() {
		t.Errorf("first row announces %q, want %q", res.Trace[0].Plan, sim.PlanString())
	}
	for _, row := range res.Trace[1:] {
		if row.Plan != "" {
			t.Errorf("iter %d repeats the plan announcement", row.Iter)
		}
	}
}

// TestPipelineCancelThroughFacade cancels a pipelined run mid-window:
// the ride-along stop must drain every rank cleanly (no leaked
// goroutines) and return the context error with the partial trace.
func TestPipelineCancelThroughFacade(t *testing.T) {
	before := runtime.NumGoroutine()
	res, err := cancelAfter(t, RunConfig{Ranks: 4, Schedule: "pipeline", PipelineDepth: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if res == nil || len(res.Trace) == 0 || len(res.Trace) >= budget {
		t.Fatalf("expected a truncated partial trace, got %+v", res)
	}
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines grew from %d to %d: ranks leaked past the fence", before, g)
	}
}

// TestPipelineConfigRoundTrip: the pipeline knobs survive the RunConfig
// round-trip with a stable content key.
func TestPipelineConfigRoundTrip(t *testing.T) {
	sim, err := NewFromConfig(RunConfig{Spec: smallSpec(), Ranks: 4, Schedule: "pipeline", PipelineDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.Config()
	if rc.Schedule != "pipeline" || rc.PipelineDepth != 3 {
		t.Fatalf("config lost the pipeline knobs: %+v", rc)
	}
	sim2, err := NewFromConfig(rc)
	if err != nil {
		t.Fatal(err)
	}
	if sim2.Config() != rc {
		t.Errorf("round-trip drifted:\n  %+v\n  %+v", rc, sim2.Config())
	}
	if sim2.Config().Key() != rc.Key() {
		t.Error("round-trip changed the content key")
	}
}

// TestAutoPlanResolvesAndRoundTrips is the auto_plan contract: Resolve
// answers the request without a device, with plan.Rule's plan recorded
// (AutoPlan set and Schedule non-empty — the resolved marker) and one Key
// however often it is asked; NewFromConfig builds exactly that
// configuration, rebuilding from it keeps the plan, and the content key
// is stable across the round trip.
func TestAutoPlanResolvesAndRoundTrips(t *testing.T) {
	req := RunConfig{Spec: smallSpec(), Ranks: 2, AutoPlan: true, MaxIterations: 3}
	resolved, err := Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := Resolve(req); err != nil || again.Key() != resolved.Key() {
		t.Errorf("one request resolved to two keys:\n  %+v\n  %+v (%v)", resolved, again, err)
	}
	want := plan.Rule(2)
	if !resolved.AutoPlan || resolved.Schedule != want.Schedule.String() || resolved.Workers != want.Workers || resolved.PipelineDepth != 0 {
		t.Errorf("resolved %+v, want the rule's %v recorded", resolved, want)
	}
	sim, err := NewFromConfig(req)
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.Config()
	if rc != resolved {
		t.Errorf("NewFromConfig resolved another config than Resolve:\n  %+v\n  %+v", rc, resolved)
	}
	if !strings.Contains(sim.PlanString(), "[auto]") {
		t.Errorf("PlanString %q does not mark the auto plan", sim.PlanString())
	}
	// A plan is schedule, workers and depth: no GEMM blocking is recorded.
	if b, err := json.Marshal(rc); err != nil || strings.Contains(string(b), "gemm") {
		t.Errorf("resolved config marshals to %s (err %v)", b, err)
	}

	sim2, err := NewFromConfig(rc)
	if err != nil {
		t.Fatal(err)
	}
	if sim2.Config() != rc {
		t.Errorf("resolved plan drifted across the round trip:\n  %+v\n  %+v", rc, sim2.Config())
	}
	if sim2.Config().Key() != rc.Key() {
		t.Error("round-trip changed the content key")
	}

	// The resolved plan is part of the artifact identity: the same
	// request without auto-planning hashes differently.
	plain, err := NewFromConfig(RunConfig{Spec: smallSpec(), Ranks: 2, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Config().Key() == rc.Key() {
		t.Error("auto-planned and plain configurations share a key")
	}

	// The planned run still solves correctly.
	run, err := sim2.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 || res.Current == 0 {
		t.Fatalf("auto-planned run produced no physics: %+v", res)
	}
}

// TestAutoPlanRunsErrorProbe: the mixed-precision error probe runs under
// every plan, so an auto_plan request may carry it and its rows read the
// probe.
func TestAutoPlanRunsErrorProbe(t *testing.T) {
	rc, err := Resolve(RunConfig{Spec: smallSpec(), Ranks: 2, AutoPlan: true, Precision: "mixed", ErrorProbe: true, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, res := solve(t, rc)
	if len(res.Trace) == 0 {
		t.Fatal("no iterations")
	}
	for _, row := range res.Trace {
		if !(row.SigmaErr > 0) {
			t.Errorf("iter %d: probe reading %g, want > 0", row.Iter, row.SigmaErr)
		}
	}
}

// TestStoredGemmBlockingIgnored: configurations recorded before the GEMM
// blocking axis was deleted carry "gemm_blocking". They must keep decoding
// and building, as the same run they describe without the field.
func TestStoredGemmBlockingIgnored(t *testing.T) {
	const stored = `{"spec":{"atoms":12,"slabs":3,"energy_points":12,"phonon_modes":3},"ranks":2,` +
		`"schedule":"overlap","workers":4,"auto_plan":true,"gemm_blocking":"64x64x128"}`
	var rc RunConfig
	if err := json.Unmarshal([]byte(stored), &rc); err != nil {
		t.Fatal(err)
	}
	sim, err := NewFromConfig(rc)
	if err != nil {
		t.Fatal(err)
	}
	if want := "overlap w=4 [auto]"; sim.PlanString() != want {
		t.Errorf("PlanString() = %q, want %q", sim.PlanString(), want)
	}
	var bare RunConfig
	if err := json.Unmarshal([]byte(strings.Replace(stored, `,"gemm_blocking":"64x64x128"`, "", 1)), &bare); err != nil {
		t.Fatal(err)
	}
	if rc != bare {
		t.Errorf("the stored field changed the decoded config:\n  %+v\n  %+v", rc, bare)
	}
}
