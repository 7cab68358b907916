package qt

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// cancelAfter launches the configuration, cancels the context as soon
// as the first iteration's telemetry arrives, and returns the outcome.
func cancelAfter(t *testing.T, opts ...Option) (*Result, error) {
	t.Helper()
	sim, err := New(smallSpec(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run, err := sim.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-run.Stats() // first iteration done
		cancel()
	}()
	done := make(chan struct{})
	var res *Result
	go func() {
		res, err = run.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled run did not finish: solver ignored the context")
	}
	return res, err
}

// TestCancelStopsRun cancels mid-run on every solver path and checks
// the run stops between iterations with a valid partial result and no
// leaked rank goroutines.
func TestCancelStopsRun(t *testing.T) {
	const budget = 50 // far more iterations than a cancelled run may use
	configs := map[string][]Option{
		"sequential":  {WithMaxIterations(budget), WithTolerance(1e-300)},
		"dist-phases": {WithRanks(4), WithMaxIterations(budget), WithTolerance(1e-300)},
		"dist-overlap": {WithRanks(4), WithSchedule(Overlap), WithWorkers(2),
			WithMaxIterations(budget), WithTolerance(1e-300)},
		"dist-overlap-mixed": {WithRanks(4), WithSchedule(Overlap), WithPrecision(Mixed),
			WithMaxIterations(budget), WithTolerance(1e-300)},
		"dist-pipeline": {WithRanks(4), WithSchedule(Pipeline), WithPipelineDepth(3),
			WithMaxIterations(budget), WithTolerance(1e-300)},
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			res, err := cancelAfter(t, opts...)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if res == nil {
				t.Fatal("cancellation must still return the partial result")
			}
			if res.Converged {
				t.Error("a cancelled run cannot report convergence")
			}
			if len(res.Trace) == 0 || len(res.Trace) >= budget/2 {
				t.Errorf("expected an early stop, got %d of %d iterations", len(res.Trace), budget)
			}
			if res.Trace[len(res.Trace)-1].Current == 0 {
				t.Error("partial trace should carry the completed iterations' currents")
			}
			// All simulated ranks must have drained: no goroutine leak.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before+2 {
				t.Errorf("goroutines leaked: %d before, %d after cancellation", before, n)
			}
		})
	}
}

// TestStartOnCancelledContext must refuse to launch.
func TestStartOnCancelledContext(t *testing.T) {
	sim, err := New(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Start(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from Start, got %v", err)
	}
}
