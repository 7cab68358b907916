package main

import (
	"math"
	"testing"

	"repro/internal/qt"
)

func TestGoldenFileCoversEveryJob(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		pins := g.Workloads[w.Name]
		var want []string
		if w.Name == "qtd_tenants" {
			for _, r := range w.script(1, false) {
				if r.Phase != 1 {
					want = append(want, r.Name)
				}
			}
		} else {
			want = names(w.jobs(false))
		}
		for _, n := range want {
			if e, ok := pins[n]; !ok || e.Current == 0 || e.Iterations == 0 {
				t.Errorf("%s: no golden for %s", w.Name, n)
			}
		}
	}
}

func solved(name string, ranks int, currents ...float64) solveOutcome {
	res := &qt.Result{Converged: true, Iterations: len(currents), Current: currents[len(currents)-1], EnergyBalance: 1}
	for i, c := range currents {
		res.Trace = append(res.Trace, qt.IterStats{Iter: i, Current: c})
	}
	return solveOutcome{Job: solveJob{Name: name, Config: qt.RunConfig{Ranks: ranks}}, Result: res}
}

func TestCheckCampaign(t *testing.T) {
	pins := map[string]goldenEntry{"seq": {Current: 2, Iterations: 2}}
	clean := pass{Solves: []solveOutcome{
		solved("seq", 0, 1, 2),
		solved("p2/phases", 2, 1, 2),
		solved("p2/overlap", 2, 1, 2),
		solved("p2/mixed", 2, 1.001, 2.001),
	}}
	g := &gate{}
	g.checkCampaign(clean, pins)
	if g.Failed != 0 {
		t.Fatalf("clean pass failed: %v", g.Failures)
	}

	oneUlp := math.Nextafter(2, 3)
	dirty := pass{Solves: []solveOutcome{
		solved("seq", 0, 1, 2, 2), // golden pins 2 iterations
		solved("p2/phases", 2, 1, 2, 2),
		solved("p2/overlap", 2, 1, 2, oneUlp), // within 1e-12 of seq, not bitwise equal to phases
		solved("p2/mixed", 2, 1, 2, 2.5),      // outside MixedCurrentTol
	}}
	dirty.Solves[1].Result.Converged = false
	dirty.Solves[0].Result.EnergyBalance = 3
	g = &gate{}
	g.checkCampaign(dirty, pins)
	// iterations pin, energy balance, not converged, bitwise, mixed tolerance
	if g.Failed != 5 {
		t.Fatalf("want 5 failures, got %d: %v", g.Failed, g.Failures)
	}
}

func TestRelDiff(t *testing.T) {
	if relDiff(0, 0) != 0 || relDiff(1, 1) != 0 {
		t.Fatal("equal values")
	}
	if got := relDiff(1, 1+1e-9); math.Abs(got-1e-9) > 1e-12 {
		t.Fatalf("relDiff = %g", got)
	}
}
