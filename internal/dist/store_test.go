package dist

import (
	"reflect"
	"testing"

	"repro/internal/bc"
)

// TestBCComputesCountsDecimations: RankLoad.BCComputes is the Sancho–Rubio
// runs a rank executed, not the misses of its run cache. Two P=2 runs of
// one device back to back over one store: the first decimates every
// boundary of its shards, the second misses its (fresh) caches just as
// often and decimates nothing — with the same observables bit for bit.
// Under NoCache every lookup is a run, store or not.
func TestBCComputesCountsDecimations(t *testing.T) {
	opts := Options{Ranks: 2}
	opts.MaxIter = 3
	opts.Tol = 1e-300
	opts.Store = bc.NewStore(bc.StoreBudget)

	first := mustRun(t, "cold store", opts)
	second := mustRun(t, "warm store", opts)
	for r, l := range first.Load {
		if want := 2 * (l.Pairs + l.Points); l.BCComputes != want {
			t.Errorf("first run, rank %d: BCComputes = %d, want two contacts × %d owned points", r, l.BCComputes, l.Pairs+l.Points)
		}
		if got := second.Load[r].BCComputes; got != 0 {
			t.Errorf("second run, rank %d: BCComputes = %d, want 0", r, got)
		}
	}
	if !reflect.DeepEqual(first.Obs, second.Obs) {
		t.Error("observables over the warm store differ from the cold run's")
	}
	for i := range first.IterTrace {
		a, b := first.IterTrace[i], second.IterTrace[i]
		if a.Current != b.Current || a.Residual != b.Residual || a.ElEnergyLoss != b.ElEnergyLoss || a.PhEnergyGain != b.PhEnergyGain {
			t.Errorf("iteration %d over the warm store differs: %+v vs %+v", i, b, a)
		}
	}
	if st := opts.Store.Stats(); st.Hits != st.Decimations || st.Entries != st.Decimations {
		t.Errorf("store after both runs: %+v", st)
	}

	opts.CacheMode = bc.NoCache
	for r, l := range mustRun(t, "NoCache", opts).Load {
		// The graph has no bc/* nodes under NoCache: one lookup per
		// contact, point solve and iteration.
		if want := opts.MaxIter * 2 * (l.Pairs + l.Points); l.BCComputes != want {
			t.Errorf("NoCache, rank %d: BCComputes = %d, want %d (one per lookup)", r, l.BCComputes, want)
		}
	}
}
