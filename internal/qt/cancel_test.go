package qt

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// budget is the iteration cap of a cancelled run: far more iterations
// than it may use.
const budget = 50

// cancelAfter launches the configuration over smallSpec with the budget
// and no reachable tolerance, cancels the context as soon as the first
// iteration's telemetry arrives, and returns the outcome.
func cancelAfter(t *testing.T, rc RunConfig) (*Result, error) {
	t.Helper()
	rc.Spec = smallSpec()
	rc.MaxIterations, rc.Tolerance = budget, 1e-300
	sim, err := NewFromConfig(rc)
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
	configs := map[string]RunConfig{
		"sequential":         {},
		"dist-phases":        {Ranks: 4},
		"dist-overlap":       {Ranks: 4, Schedule: "overlap", Workers: 2},
		"dist-overlap-mixed": {Ranks: 4, Schedule: "overlap", Precision: "mixed"},
		"dist-pipeline":      {Ranks: 4, Schedule: "pipeline", PipelineDepth: 3},
	}
	for name, rc := range configs {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			res, err := cancelAfter(t, rc)
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
	sim, err := NewFromConfig(RunConfig{Spec: smallSpec()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Start(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from Start, got %v", err)
	}
}
