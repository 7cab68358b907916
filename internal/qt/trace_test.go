package qt

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bc"
	"repro/internal/dist"
	"repro/internal/obs"
)

// collectCats runs the given simulation and indexes the recorded spans
// by category and by rank.
func collectCats(t *testing.T, rc RunConfig) (cats map[string]int, ranks map[int]bool) {
	t.Helper()
	sim, err := NewFromConfig(rc)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans == nil {
		t.Fatal("traced run returned nil Spans")
	}
	cats = map[string]int{}
	ranks = map[int]bool{}
	for _, sp := range res.Spans.Spans {
		cats[sp.Cat]++
		ranks[sp.Rank] = true
		if sp.Dur < 0 {
			t.Errorf("span %q: negative duration %d", sp.Name, sp.Dur)
		}
	}
	return cats, ranks
}

// TestTraceSequential pins that a traced run without ranks records the
// one-rank window graph's spans: one window envelope per iteration, its
// nodes (tasks, the tile, the exchange and reduction nodes that ship
// nothing) and per-point BC/RGF spans — and none of the deleted
// sequential loop's phase envelopes.
func TestTraceSequential(t *testing.T) {
	rc := RunConfig{Spec: smallSpec(), Trace: true, MaxIterations: 2, Tolerance: 1e-300}
	sim, err := NewFromConfig(rc)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	for _, sp := range res.Spans.Spans {
		cats[sp.Cat]++
		if sp.Rank != 0 {
			t.Errorf("span %q on rank %d of a one-rank run", sp.Name, sp.Rank)
		}
		if sp.Name == "sse/phase" || sp.Name == "gf/phase" {
			t.Errorf("span %q of the deleted sequential loop", sp.Name)
		}
	}
	for _, c := range []string{"iter", "task", "sse", "exchange", "reduce", "bc", "rgf"} {
		if cats[c] == 0 {
			t.Errorf("category %q missing from the trace without ranks (got %v)", c, cats)
		}
	}
	if cats["gf"] != 0 {
		t.Errorf("gf spans = %d, want none", cats["gf"])
	}
	if cats["iter"] != 2 {
		t.Errorf("iter spans = %d, want 2", cats["iter"])
	}
}

// TestTraceDistributed pins the distributed coverage contract for both
// schedules: BC, RGF, SSE, and exchange spans for every rank.
func TestTraceDistributed(t *testing.T) {
	for _, sch := range []dist.Schedule{Phases, Overlap} {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			const P = 2
			cats, ranks := collectCats(t, RunConfig{Spec: smallSpec(), Trace: true, Ranks: P,
				Schedule: sch.String(), MaxIterations: 2, Tolerance: 1e-300})
			for _, c := range []string{"iter", "bc", "rgf", "sse", "exchange", "reduce"} {
				if cats[c] == 0 {
					t.Errorf("category %q missing from %s trace (got %v)", c, sch, cats)
				}
			}
			for r := 0; r < P; r++ {
				if !ranks[r] {
					t.Errorf("rank %d recorded no spans", r)
				}
			}
		})
	}
}

// TestTraceDisabled pins the off-by-default contract: without trace the
// result carries no spans.
func TestTraceDisabled(t *testing.T) {
	sim, err := NewFromConfig(RunConfig{Spec: smallSpec(), MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans != nil {
		t.Errorf("untraced run has %d spans, want nil", len(res.Spans.Spans))
	}
}

// TestTraceChangesKey pins that trace participates in the content hash:
// a traced and an untraced run address different cache entries.
func TestTraceChangesKey(t *testing.T) {
	plain, err := NewFromConfig(RunConfig{Spec: smallSpec()})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := NewFromConfig(RunConfig{Spec: smallSpec(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Config().Key() == traced.Config().Key() {
		t.Error("traced and untraced configurations share a key")
	}
	rt, err := NewFromConfig(traced.Config())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Config().Key() != traced.Config().Key() {
		t.Error("Trace flag lost in the RunConfig round trip")
	}
}

// TestTraceBCSpansWhereTheDecimationRuns: the "bc" span is recorded by the
// boundary lookup itself, inside the point solve that needs it, so under
// the task graph the cold decimation of iteration 0 shows inside the
// point's rgf/* task envelope, and the next iteration's lookup of the
// point is a hit orders of magnitude shorter. A task span is the
// executor's own record placed on the trace clock by one exact offset,
// so every lookup lies inside its task to the nanosecond.
func TestTraceBCSpansWhereTheDecimationRuns(t *testing.T) {
	// A private store: this package's other tests have long decimated
	// smallSpec's leads into the process-wide one.
	_, res := solveOver(t, bc.NewStore(bc.StoreBudget), RunConfig{Spec: smallSpec(), Trace: true, Ranks: 2, MaxIterations: 2, Tolerance: 1e-300})
	type point struct {
		rank int
		name string // "rgf/el/ik,ie" — the task label, rebuilt from a bc span
	}
	tasks := map[point][]obs.Span{} // the rgf/* tasks of each point, in iteration order
	lookups := map[point][]obs.Span{}
	for _, sp := range res.Spans.Spans {
		switch {
		case sp.Cat == "task" && strings.HasPrefix(sp.Name, "rgf/"):
			k := point{sp.Rank, sp.Name}
			tasks[k] = append(tasks[k], sp)
		case sp.Cat == "bc":
			k := point{sp.Rank, fmt.Sprintf("rgf/%s/%d,%d", strings.TrimPrefix(sp.Name, "bc/"), sp.I, sp.J)}
			lookups[k] = append(lookups[k], sp)
		}
	}
	if len(tasks) == 0 {
		t.Fatal("traced graph run recorded no rgf/* tasks")
	}
	// Wall-clock spans on a shared host: one preempted goroutine stretches
	// a 100 ns lookup into milliseconds, so judge medians and a quorum,
	// not every span.
	var cold, warm []int64
	for k, ts := range tasks {
		spans := lookups[k]
		// One lookup per point solve, two iterations.
		if len(spans) != 2 || len(ts) != 2 {
			t.Errorf("%v: %d bc spans in %d tasks, want 2 in 2", k, len(spans), len(ts))
			continue
		}
		cold = append(cold, spans[0].Dur)
		warm = append(warm, spans[1].Dur)
		for i, bc := range spans {
			if task := ts[i]; bc.Start < task.Start || bc.Start+bc.Dur > task.Start+task.Dur {
				t.Errorf("%v iteration %d: bc span [%d, %d] ns outside its task [%d, %d] ns",
					k, i, bc.Start, bc.Start+bc.Dur, task.Start, task.Start+task.Dur)
			}
		}
	}
	if t.Failed() {
		return
	}
	slices.Sort(cold)
	slices.Sort(warm)
	if c, w := cold[len(cold)/2], warm[len(warm)/2]; c < 10*w {
		t.Errorf("median first lookup %d ns vs median later lookup %d ns: the first must be the decimation, the second a cache hit", c, w)
	}
}
