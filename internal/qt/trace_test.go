package qt

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bc"
	"repro/internal/obs"
)

// collectCats runs the given simulation and indexes the recorded spans
// by category and by rank.
func collectCats(t *testing.T, spec Spec, opts ...Option) (cats map[string]int, ranks map[int]bool) {
	t.Helper()
	sim, err := New(spec, opts...)
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
		t.Fatal("WithTrace run returned nil Spans")
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

// TestTraceSequential pins that a traced sequential run records the
// iteration envelope, the GF/SSE phases, and per-point BC/RGF spans.
func TestTraceSequential(t *testing.T) {
	cats, _ := collectCats(t, smallSpec(), WithTrace(), WithMaxIterations(2), WithTolerance(1e-300))
	for _, c := range []string{"iter", "gf", "sse", "bc", "rgf"} {
		if cats[c] == 0 {
			t.Errorf("category %q missing from sequential trace (got %v)", c, cats)
		}
	}
	if cats["iter"] != 2 {
		t.Errorf("iter spans = %d, want 2", cats["iter"])
	}
}

// TestTraceDistributed pins the distributed coverage contract for both
// schedules: BC, RGF, SSE, and exchange spans for every rank.
func TestTraceDistributed(t *testing.T) {
	for _, sch := range []Schedule{Phases, Overlap} {
		sch := sch
		t.Run(sch.String(), func(t *testing.T) {
			const P = 2
			cats, ranks := collectCats(t, smallSpec(),
				WithTrace(), WithRanks(P), WithSchedule(sch),
				WithMaxIterations(2), WithTolerance(1e-300))
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

// TestTraceDisabled pins the off-by-default contract: without WithTrace
// the result carries no spans.
func TestTraceDisabled(t *testing.T) {
	sim, err := New(smallSpec(), WithMaxIterations(1))
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

// TestTraceChangesKey pins that WithTrace participates in the content
// hash: a traced and an untraced run address different cache entries.
func TestTraceChangesKey(t *testing.T) {
	plain, err := New(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(smallSpec(), WithTrace())
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
// boundary lookup itself, so under the task graph the cold decimation of
// iteration 0 shows inside its bc/* task envelope — not as a nanosecond
// cache hit in the solve node while the real cost hides in the task span —
// and every later lookup of the point is a hit orders of magnitude
// shorter.
func TestTraceBCSpansWhereTheDecimationRuns(t *testing.T) {
	// A private store: this package's other tests have long decimated
	// smallSpec's leads into the process-wide one.
	_, res := solveOver(t, bc.NewStore(bc.StoreBudget), smallSpec(), WithTrace(), WithRanks(2), WithMaxIterations(2), WithTolerance(1e-300))
	type point struct {
		rank int
		name string // "bc/el/ik,ie" — the task label, rebuilt from a bc span
	}
	tasks := map[point]obs.Span{} // first (iteration-0) bc/* task of each point
	lookups := map[point][]obs.Span{}
	for _, sp := range res.Spans.Spans {
		switch {
		case sp.Cat == "task" && strings.HasPrefix(sp.Name, "bc/"):
			if _, seen := tasks[point{sp.Rank, sp.Name}]; !seen {
				tasks[point{sp.Rank, sp.Name}] = sp
			}
		case sp.Cat == "bc":
			k := point{sp.Rank, fmt.Sprintf("%s/%d,%d", sp.Name, sp.I, sp.J)}
			lookups[k] = append(lookups[k], sp)
		}
	}
	if len(tasks) == 0 {
		t.Fatal("traced graph run recorded no bc/* tasks")
	}
	// Wall-clock spans on a shared host: one preempted goroutine stretches
	// a 100 ns lookup into milliseconds, so judge medians and a quorum,
	// not every span.
	var cold, warm []int64
	enclosed := 0
	for k, task := range tasks {
		spans := lookups[k]
		// Two iterations × (bc node + solve node) lookups per point.
		if len(spans) != 4 {
			t.Errorf("%v: %d bc spans, want 4", k, len(spans))
			continue
		}
		first := spans[0]
		cold = append(cold, first.Dur)
		for _, sp := range spans[1:] {
			warm = append(warm, sp.Dur)
		}
		// The executor and the tracer read the clock separately, so allow
		// the envelope a few microseconds of skew, not a whole span.
		lo, hi := max(first.Start, task.Start), min(first.Start+first.Dur, task.Start+task.Dur)
		if float64(hi-lo) >= 0.9*float64(first.Dur) {
			enclosed++
		}
	}
	if t.Failed() {
		return
	}
	if 10*enclosed < 9*len(tasks) {
		t.Errorf("only %d of %d cold bc spans lie inside their bc/* task envelope", enclosed, len(tasks))
	}
	slices.Sort(cold)
	slices.Sort(warm)
	if c, w := cold[len(cold)/2], warm[len(warm)/2]; c < 10*w {
		t.Errorf("median first lookup %d ns vs median later lookup %d ns: the first must be the decimation, the rest cache hits", c, w)
	}
}
