package qt

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/negf"
)

// TestWarmStartFewerIterations pins the warm-start contract the qtd
// result cache depends on: seeding a run with the converged Σ≷/Π≷ state
// of the same configuration converges almost immediately, and seeding a
// neighbouring-bias run (the near-identical request) converges in fewer
// iterations than the cold start.
func TestWarmStartFewerIterations(t *testing.T) {
	spec := smallSpec()
	opts := []Option{WithTolerance(1e-6), WithMaxIterations(40)}

	_, cold := solve(t, spec, opts...)
	if !cold.Converged {
		t.Fatal("cold run did not converge")
	}
	if cold.FinalState == nil {
		t.Fatal("sequential run did not capture its final Σ≷ state")
	}
	if cold.Iterations < 3 {
		t.Fatalf("cold run too easy (%d iterations) to measure warm-start gains", cold.Iterations)
	}

	// Same configuration, warm seed: the loop starts at its fixed point.
	_, self := solve(t, spec, append(opts[:len(opts):len(opts)], WithWarmStart(cold.FinalState))...)
	if !self.Converged {
		t.Fatal("self-seeded run did not converge")
	}
	if self.Iterations > 2 {
		t.Errorf("self-seeded run took %d iterations, want <= 2", self.Iterations)
	}

	// Neighbouring bias: cold vs warm-started from the first run's state.
	shifted := append(opts[:len(opts):len(opts)], WithBias(spec.withDefaults().Bias+0.02))
	_, coldN := solve(t, spec, shifted...)
	_, warmN := solve(t, spec, append(shifted[:len(shifted):len(shifted)], WithWarmStart(cold.FinalState))...)
	if !coldN.Converged || !warmN.Converged {
		t.Fatalf("neighbour runs did not converge (cold %v, warm %v)", coldN.Converged, warmN.Converged)
	}
	if warmN.Iterations >= coldN.Iterations {
		t.Errorf("warm start did not help: cold %d iterations, warm %d", coldN.Iterations, warmN.Iterations)
	}
}

// TestWarmStartValidation: the option is sequential-only and
// shape-checked against the device.
func TestWarmStartValidation(t *testing.T) {
	_, res := solve(t, smallSpec(), WithMaxIterations(2), WithTolerance(1e-300))
	st := res.FinalState

	if _, err := New(smallSpec(), WithRanks(2), WithWarmStart(st)); err == nil ||
		!strings.Contains(err.Error(), "sequential") {
		t.Errorf("distributed warm start not rejected: %v", err)
	}
	if _, err := New(Spec{Atoms: 24, Slabs: 6}, WithWarmStart(st)); err == nil ||
		!strings.Contains(err.Error(), "shape") {
		t.Errorf("shape mismatch not rejected: %v", err)
	}
	if _, err := New(smallSpec(), WithWarmStart(nil)); err == nil {
		t.Error("nil state not rejected")
	}
	if _, err := New(smallSpec(), WithWarmStart(st)); err != nil {
		t.Errorf("matching warm start rejected: %v", err)
	}
}

// TestNonFiniteCurrentIsAnError: a run seeded with a NaN Σ≷ produces a
// NaN contact current on its first iteration. That must end the run with
// the typed negf.ErrNonFinite through Wait — not stream MaxIter rows that
// report the NaN as "residual 0".
func TestNonFiniteCurrentIsAnError(t *testing.T) {
	_, res := solve(t, smallSpec(), WithMaxIterations(1), WithTolerance(1e-300))
	bad := res.FinalState.Clone()
	for i := range bad.SigL.Data {
		bad.SigL.Data[i] = complex(math.NaN(), 0)
	}
	sim, err := New(smallSpec(), WithMaxIterations(6), WithTolerance(1e-300), WithWarmStart(bad))
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = run.Wait()
	var nf negf.ErrNonFinite
	if !errors.As(err, &nf) {
		t.Fatalf("Wait returned %v, want negf.ErrNonFinite", err)
	}
	if nf.Iter != 0 {
		t.Errorf("non-finite current reported at iteration %d, want 0", nf.Iter)
	}
	for st := range run.Stats() {
		if st.Iter > 0 && st.Residual == 0 {
			t.Errorf("streamed iteration %d with residual 0", st.Iter)
		}
		if math.IsNaN(st.Current) {
			t.Errorf("streamed a NaN current at iteration %d", st.Iter)
		}
	}
}
