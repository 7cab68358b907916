package qt

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/decomp"
	"repro/internal/dist"
	"repro/internal/negf"
)

// TestFacadeMatchesOneRankRun checks the facade is a zero-cost veneer
// over the one loop: a configuration without ranks records the
// per-iteration currents of a hand-wired one-rank dist.Run bitwise, in
// fp64 and mixed precision — on the phases order, where the facade
// lowers to the overlap order on a pool.
func TestFacadeMatchesOneRankRun(t *testing.T) {
	const iters = 4
	for _, prec := range []decomp.Precision{decomp.FP64, decomp.Mixed} {
		_, res := solve(t, RunConfig{Spec: smallSpec(), Precision: prec.String(),
			MaxIterations: iters, Tolerance: 1e-300})

		dev, err := smallSpec().Build()
		if err != nil {
			t.Fatal(err)
		}
		opts := dist.Options{Ranks: 1, Precision: prec}
		opts.MaxIter = iters
		opts.Tol = 1e-300
		dres, err := dist.Run(dev, opts)
		if !errors.Is(err, negf.ErrNotConverged) {
			t.Fatalf("direct solver: %v", err)
		}

		if len(res.Trace) != len(dres.IterTrace) {
			t.Fatalf("%s: facade ran %d iterations, direct %d", prec, len(res.Trace), len(dres.IterTrace))
		}
		for i := range res.Trace {
			if res.Trace[i].Current != dres.IterTrace[i].Current {
				t.Errorf("%s iter %d: facade current %.17g != direct %.17g",
					prec, i, res.Trace[i].Current, dres.IterTrace[i].Current)
			}
		}
	}
}

// TestFacadeMatchesDistributedSolver checks the same for the
// distributed path: the facade's telemetry hook (and its cancellation
// agreement collective) must not perturb the arithmetic.
func TestFacadeMatchesDistributedSolver(t *testing.T) {
	const iters, ranks = 3, 4
	for _, prec := range []decomp.Precision{decomp.FP64, decomp.Mixed} {
		_, res := solve(t, RunConfig{Spec: smallSpec(), Ranks: ranks, Precision: prec.String(),
			MaxIterations: iters, Tolerance: 1e-300})

		dev, err := smallSpec().Build()
		if err != nil {
			t.Fatal(err)
		}
		opts := dist.Options{Ranks: ranks}
		opts.MaxIter = iters
		opts.Tol = 1e-300
		if prec == decomp.Mixed {
			opts.Precision = decomp.Mixed
		}
		dres, err := dist.Run(dev, opts)
		if !errors.Is(err, negf.ErrNotConverged) {
			t.Fatalf("direct solver: %v", err)
		}

		if len(res.Trace) != len(dres.IterTrace) {
			t.Fatalf("%s: facade ran %d iterations, direct %d", prec, len(res.Trace), len(dres.IterTrace))
		}
		for i := range res.Trace {
			if res.Trace[i].Current != dres.IterTrace[i].Current {
				t.Errorf("%s iter %d: facade current %.17g != direct %.17g",
					prec, i, res.Trace[i].Current, dres.IterTrace[i].Current)
			}
		}
	}
}

// TestDistributedMatchesSequentialThroughFacade is the end-to-end
// equivalence entirely in facade terms: the same spec solved
// sequentially and on 2 ranks gives the same per-iteration currents
// within reduction-ordering tolerance (fp64) and MixedCurrentTol
// (mixed).
func TestDistributedMatchesSequentialThroughFacade(t *testing.T) {
	const iters = 3
	_, seq := solve(t, RunConfig{Spec: smallSpec(), MaxIterations: iters, Tolerance: 1e-300})
	for _, prec := range []decomp.Precision{decomp.FP64, decomp.Mixed} {
		tol := 1e-12
		if prec == decomp.Mixed {
			tol = dist.MixedCurrentTol
		}
		_, dres := solve(t, RunConfig{Spec: smallSpec(), Ranks: 2, Precision: prec.String(),
			MaxIterations: iters, Tolerance: 1e-300})
		for i := range dres.Trace {
			rel := math.Abs(dres.Trace[i].Current-seq.Trace[i].Current) /
				math.Abs(seq.Trace[i].Current)
			if rel > tol {
				t.Errorf("%s iter %d: distributed %.17g vs sequential %.17g (rel %.3g > %g)",
					prec, i, dres.Trace[i].Current, seq.Trace[i].Current, rel, tol)
			}
		}
	}
}

// TestTelemetryStreamMatchesTrace drains the streaming channel and
// checks it delivers exactly the result's trace, for all three solver
// paths and for a run cancelled after its first row, whose trace ends
// where its stream does.
func TestTelemetryStreamMatchesTrace(t *testing.T) {
	const iters = 3
	configs := map[string]struct {
		rc     RunConfig
		cancel bool
	}{
		"sequential":              {RunConfig{}, false},
		"dist-phases":             {RunConfig{Ranks: 2}, false},
		"dist-overlap":            {RunConfig{Ranks: 2, Schedule: "overlap"}, false},
		"dist-pipeline-cancelled": {RunConfig{Ranks: 2, Schedule: "pipeline", PipelineDepth: 2, MaxIterations: budget}, true},
	}
	for name, c := range configs {
		t.Run(name, func(t *testing.T) {
			rc := c.rc
			rc.Spec, rc.Tolerance = smallSpec(), 1e-300
			if rc.MaxIterations == 0 {
				rc.MaxIterations = iters
			}
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
			var streamed []IterStats
			for st := range run.Stats() {
				streamed = append(streamed, st)
				if c.cancel {
					cancel()
				}
			}
			res, err := run.Wait()
			switch {
			case c.cancel && !errors.Is(err, context.Canceled):
				t.Fatalf("want context.Canceled, got %v", err)
			case !c.cancel && err != nil:
				t.Fatal(err)
			}
			if len(streamed) != len(res.Trace) || len(streamed) == 0 {
				t.Fatalf("streamed %d rows, trace %d", len(streamed), len(res.Trace))
			}
			if !c.cancel && len(streamed) != iters || c.cancel && len(streamed) >= budget/2 {
				t.Errorf("%d rows: want %d, or an early stop when cancelled", len(streamed), iters)
			}
			for i := range streamed {
				if streamed[i] != res.Trace[i] {
					t.Errorf("iter %d: streamed %+v != trace %+v", i, streamed[i], res.Trace[i])
				}
			}
			if want := sim.PlanString(); res.Trace[0].Plan != want {
				t.Errorf("row 0 announces plan %q, want %q", res.Trace[0].Plan, want)
			}
		})
	}
}

// TestSweepGrid runs a tiny bias×ranks grid and cross-checks the
// solver-equivalence of the grid points: a zero on the ranks axis is a
// run without ranks, which carries no communication counters.
func TestSweepGrid(t *testing.T) {
	biases := []float64{0.2, 0.3}
	points := ivGrid(t, biases, 2)
	if len(points) != 4 {
		t.Fatalf("expected 4 grid points, got %d", len(points))
	}
	// Points arrive bias-major; sequential and 2-rank solves of the same
	// bias must agree.
	for i := 0; i < len(points); i += 2 {
		seq, dst := points[i], points[i+1]
		if seq.Comm != nil || dst.Comm == nil {
			t.Fatalf("bias %g: comm stats %v (sequential) / %v (P=2)", biases[i/2], seq.Comm, dst.Comm)
		}
		rel := math.Abs(seq.Current-dst.Current) / math.Abs(seq.Current)
		if rel > 1e-12 {
			t.Errorf("bias %g: sequential %.17g vs distributed %.17g (rel %.3g)",
				biases[i/2], seq.Current, dst.Current, rel)
		}
	}
	// Different biases must give different currents.
	if points[0].Current == points[2].Current {
		t.Error("bias axis had no effect")
	}
}

// TestTraceRowEncoding pins the wire form of a telemetry row — what the
// report encoders, the SSE "iter" frames and the registry records carry —
// to the bytes commit 1f4b91f produced, when qt.IterStats was its own
// struct mapped from the solvers' rows (timings zeroed; everything else
// is deterministic). One value moved since: reduce_bytes of the P=2 run
// was 1152 while the default schedule paid a 32-byte cancellation
// Allreduce for the facade's Progress hook; the request now rides the
// observable reduction, which leaves its 1120 bytes. The traffic moved
// once more when the phonon tensors stopped storing padding slots: the
// sequential BytesMoved 857088 → 597888, the P=2 BytesMoved 1714176 →
// 1195776 and its sse_bytes 801792 → 542592; no other byte changed.
func TestTraceRowEncoding(t *testing.T) {
	for _, c := range []struct {
		name  string
		ranks int
		want  []string
	}{
		{"sequential", 0, []string{
			`{"iter":0,"current":0.06862937982202044,"residual":0,"el_energy_loss":0,"ph_energy_gain":0,"sse":{"MatMuls":53136,"Flops":3400704,"ScalarOps":30606336,"BytesMoved":597888},"sse_bytes":0,"reduce_bytes":0,"sigma_err":0,"wall_ns":0,"compute_ns":0,"comm_ns":0}`,
			`{"iter":1,"current":0.06863286678143306,"residual":0.00005080597061055736,"el_energy_loss":4.6693875714745013e-7,"ph_energy_gain":0.0000011942879746129608,"sse":{"MatMuls":53136,"Flops":3400704,"ScalarOps":30606336,"BytesMoved":597888},"sse_bytes":0,"reduce_bytes":0,"sigma_err":0,"wall_ns":0,"compute_ns":0,"comm_ns":0}`,
		}},
		{"P=2", 2, []string{
			`{"iter":0,"current":0.06862937982202044,"residual":0,"el_energy_loss":0,"ph_energy_gain":0,"sse":{"MatMuls":70848,"Flops":4534272,"ScalarOps":30606336,"BytesMoved":1195776},"sse_bytes":542592,"reduce_bytes":1120,"sigma_err":0,"wall_ns":0,"compute_ns":0,"comm_ns":0,"plan":"phases"}`,
			`{"iter":1,"current":0.06863286678143306,"residual":0.00005080597061055736,"el_energy_loss":4.669387571474503e-7,"ph_energy_gain":0.0000011942879746129613,"sse":{"MatMuls":70848,"Flops":4534272,"ScalarOps":30606336,"BytesMoved":1195776},"sse_bytes":542592,"reduce_bytes":1120,"sigma_err":0,"wall_ns":0,"compute_ns":0,"comm_ns":0}`,
		}},
	} {
		_, res := solve(t, RunConfig{Spec: smallSpec(), Ranks: c.ranks, MaxIterations: 2, Tolerance: 1e-300})
		if len(res.Trace) != len(c.want) {
			t.Fatalf("%s: %d rows, want %d", c.name, len(res.Trace), len(c.want))
		}
		for i, row := range res.Trace {
			row.WallNs, row.ComputeNs, row.CommNs = 0, 0, 0
			got, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != c.want[i] {
				t.Errorf("%s row %d encodes as\n  %s\nrecorded\n  %s", c.name, i, got, c.want[i])
			}
		}
	}
}
