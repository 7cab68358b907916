package qt

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bc"
)

// solveOver is solve with the simulation's boundaries shared through
// store instead of the process-wide one.
func solveOver(t *testing.T, store *bc.Store, spec Spec, opts ...Option) (*Simulation, *Result) {
	t.Helper()
	sim, err := New(spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sim.store = store
	run, err := sim.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return sim, res
}

// untimed strips the wall-clock fields of a trace: what is left is the
// deterministic content of the rows.
func untimed(trace []IterStats) []IterStats {
	out := append([]IterStats(nil), trace...)
	for i := range out {
		out[i].WallNs, out[i].ComputeNs, out[i].CommNs = 0, 0, 0
	}
	return out
}

// TestBiasSweepDecimatesEachLeadOnce is the point of the boundary store:
// the bias enters a solve only through the contacts' Fermi factors, so
// the second bias of a sweep finds every boundary of its cold iteration
// already decimated — and reads, bit for bit, the rows of a twin that
// decimated them itself.
func TestBiasSweepDecimatesEachLeadOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"sequential", nil},
		{"P=2", []Option{WithRanks(2)}},
	} {
		opts := append([]Option{WithMaxIterations(3), WithTolerance(1e-300)}, c.opts...)
		at := func(bias float64) []Option { return append([]Option{WithBias(bias)}, opts...) }
		shared := bc.NewStore(bc.StoreBudget)

		solveOver(t, shared, smallSpec(), at(0.2)...)
		first := shared.Stats()
		if first.Decimations == 0 || first.Hits != 0 || first.Entries != first.Decimations {
			t.Fatalf("%s: first bias left the store at %+v", c.name, first)
		}
		_, second := solveOver(t, shared, smallSpec(), at(0.3)...)
		st := shared.Stats()
		if st.Decimations != first.Decimations || st.Entries != first.Entries || st.Hits != first.Decimations {
			t.Errorf("%s: second bias moved the store %+v → %+v: want every lookup a hit", c.name, first, st)
		}
		for _, l := range second.Load {
			if l.BCComputes != 0 {
				t.Errorf("%s: rank %d ran %d decimations on the second bias", c.name, l.Rank, l.BCComputes)
			}
		}

		_, twin := solveOver(t, bc.NewStore(bc.StoreBudget), smallSpec(), at(0.3)...)
		if !reflect.DeepEqual(untimed(second.Trace), untimed(twin.Trace)) {
			t.Errorf("%s: rows over the warm store differ from the cold twin's:\n%+v\n%+v", c.name, second.Trace, twin.Trace)
		}
		if second.Current == 0 || second.Current != twin.Current || second.MaxTemperature != twin.MaxTemperature {
			t.Errorf("%s: result over the warm store %v / %v K, cold twin %v / %v K", c.name,
				second.Current, second.MaxTemperature, twin.Current, twin.MaxTemperature)
		}
	}
}

var unseenSeed uint64 = 0xb0d4

// TestNewTouchesNoBoundary: building a simulation does no boundary work —
// no lookup, no digest, no entry — so set-up costs what it did before the
// store existed. The auto-plan probe is a solve and may fill the store;
// the second New of that configuration then finds everything.
func TestNewTouchesNoBoundary(t *testing.T) {
	spec := smallSpec()
	spec.Seed = unseenSeed // a device nothing in this process has built
	unseenSeed++           // … including this test under -count=N
	for _, c := range []struct {
		name string
		rc   RunConfig
	}{
		{"sequential", RunConfig{Spec: spec}},
		{"ranks: 2", RunConfig{Spec: spec, Ranks: 2}},
	} {
		before := BoundaryStore()
		sim, err := NewFromConfig(c.rc)
		if err != nil {
			t.Fatal(err)
		}
		if after := BoundaryStore(); after != before {
			t.Errorf("%s: NewFromConfig moved the boundary store %+v → %+v", c.name, before, after)
		}
		if sim.store != boundaries {
			t.Errorf("%s: the simulation does not solve over the process's store", c.name)
		}
	}

	auto := RunConfig{Spec: spec, Ranks: 2, AutoPlan: true}
	before := BoundaryStore()
	if _, err := NewFromConfig(auto); err != nil {
		t.Fatal(err)
	}
	probed := BoundaryStore()
	if probed.Entries == before.Entries || probed.Decimations == before.Decimations {
		t.Fatalf("the auto-plan probe did not decimate a never-seen device: %+v → %+v", before, probed)
	}
	if _, err := NewFromConfig(auto); err != nil {
		t.Fatal(err)
	}
	again := BoundaryStore()
	if again.Entries != probed.Entries || again.Decimations != probed.Decimations || again.Hits == probed.Hits {
		t.Errorf("the second probe of one device decimated again: %+v → %+v", probed, again)
	}
}
