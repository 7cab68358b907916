package qt

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestPipelineThroughFacade runs the pipelined schedule end to end via
// the facade and pins the 1e-12 equivalence against the sequential
// solver, plus the plan announcement on the first streamed row.
func TestPipelineThroughFacade(t *testing.T) {
	const iters = 3
	_, seq := solve(t, smallSpec(), WithMaxIterations(iters), WithTolerance(1e-300))
	sim, res := solve(t, smallSpec(), WithRanks(4), WithSchedule(Pipeline),
		WithPipelineDepth(2), WithWorkers(2),
		WithMaxIterations(iters), WithTolerance(1e-300))
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
	res, err := cancelAfter(t, WithRanks(4), WithSchedule(Pipeline), WithPipelineDepth(3),
		WithMaxIterations(50), WithTolerance(1e-300))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if res == nil || len(res.Trace) == 0 || len(res.Trace) >= 50 {
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
	sim, err := New(smallSpec(), WithRanks(4), WithSchedule(Pipeline), WithPipelineDepth(3))
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

// TestAutoPlanResolvesAndRoundTrips is the WithAutoPlan contract: New
// resolves a concrete plan, Config records it (AutoPlan set and
// Schedule non-empty — the resolved marker), rebuilding from that
// config keeps the plan without re-probing, and the content key is
// stable across the round trip.
func TestAutoPlanResolvesAndRoundTrips(t *testing.T) {
	sim, err := New(smallSpec(), WithRanks(2), WithAutoPlan(), WithMaxIterations(3))
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.Config()
	if !rc.AutoPlan {
		t.Fatal("config dropped auto_plan")
	}
	if rc.Schedule == "" {
		t.Fatal("resolved config must record the chosen schedule")
	}
	if rc.Workers < 1 {
		t.Fatalf("resolved config must record the chosen workers, got %d", rc.Workers)
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
	plain, err := New(smallSpec(), WithRanks(2), WithMaxIterations(3))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Config().Key() == rc.Key() {
		t.Error("auto-planned and plain configurations share a key")
	}

	// And the planned run still solves correctly.
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
