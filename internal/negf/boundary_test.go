package negf

import (
	"testing"

	"repro/internal/bc"
	"repro/internal/device"
)

// TestWarmBCSolveMatchesCold: a point solve looks its boundaries up
// where it runs, so the first solve of a point decimates both contacts
// into the cache and the next one (a) hits them instead of recomputing
// and (b) produces bitwise the results of a cold solver.
func TestWarmBCSolveMatchesCold(t *testing.T) {
	p := device.TestParams(9, 3, 2)
	p.NE = 4
	p.Nomega = 2
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	h := dev.Hamiltonian(0)
	phi := dev.Dynamical(0)

	warm := NewPointSolver(dev, bc.CacheBC)
	for _, want := range []struct{ hits, misses int }{{0, 4}, {4, 4}} {
		if _, err := warm.SolveElectronPoint(h, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := warm.SolvePhononPoint(phi, 0, 1); err != nil {
			t.Fatal(err)
		}
		if hits, misses := warm.BC.Stats(); hits != want.hits || misses != want.misses {
			t.Fatalf("hits=%d misses=%d, want %d/%d", hits, misses, want.hits, want.misses)
		}
	}

	cold := NewPointSolver(dev, bc.CacheBC)
	rw, err := warm.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rw.CurrentL != rc.CurrentL || rw.CurrentR != rc.CurrentR {
		t.Fatalf("warmed electron solve differs: %v vs %v", rw.CurrentL, rc.CurrentL)
	}
	pw, err := warm.SolvePhononPoint(phi, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := cold.SolvePhononPoint(phi, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pw.EnergyContactL != pc.EnergyContactL {
		t.Fatalf("warmed phonon solve differs: %v vs %v", pw.EnergyContactL, pc.EnergyContactL)
	}
}

// TestStoreLeavesEveryBitAlone: a hit returns the very matrices the
// decimation would have produced, so a solve over no store, over a cold
// store, over the store that solve warmed, and over a store too small to
// hold the device (three results: it evicts all the way through) leave
// the same bits in every row and observable — and only the cold and the
// evicting ones decimate. NoCache recomputes on every lookup whatever
// sits under it.
func TestStoreLeavesEveryBitAlone(t *testing.T) {
	p := device.TestParams(12, 3, 2)
	p.NE = 8
	p.Nomega = 2
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode bc.Mode, store *bc.Store) *Solver {
		o := DefaultOptions()
		o.CacheMode = mode
		o.Store = store
		o.MaxIter = 3
		o.Tol = 1e-300
		s := New(dev, o)
		if _, err := s.Run(); err != ErrNotConverged {
			t.Fatal(err)
		}
		return s
	}
	lookups := 2 * (p.Nkz*p.NE + p.Nqz()*p.Nomega) // per iteration: two contacts per point
	bs := p.ElBlockSize()
	shared := bc.NewStore(bc.StoreBudget)
	budget := int64(3 * 3 * 16 * bs * bs)
	small := bc.NewStore(budget)

	ref := run(bc.CacheBC, nil)
	for _, c := range []struct {
		name        string
		mode        bc.Mode
		store       *bc.Store
		decimations int
	}{
		{"cold store", bc.CacheBC, shared, lookups},
		{"warm store", bc.CacheBC, shared, 0},
		{"evicting store", bc.CacheBC, small, lookups},
		{"evicting store again", bc.CacheBC, small, lookups},
		{"NoCache over the warm store", bc.NoCache, shared, 3 * lookups},
	} {
		s := run(c.mode, c.store)
		if got := s.BC.Decimations(); got != c.decimations {
			t.Errorf("%s: %d decimations, want %d", c.name, got, c.decimations)
		}
		for i, st := range s.IterTrace {
			w := ref.IterTrace[i]
			if st.Current != w.Current || st.Residual != w.Residual || st.ElEnergyLoss != w.ElEnergyLoss || st.PhEnergyGain != w.PhEnergyGain {
				t.Errorf("%s: iteration %d differs from the run with no store: %+v vs %+v", c.name, i, st, w)
			}
		}
		for i, v := range s.GL.Data {
			if v != ref.GL.Data[i] {
				t.Fatalf("%s: G< differs at %d", c.name, i)
			}
		}
	}
	if st := shared.Stats(); st.Decimations != int64(lookups) || st.Hits != int64(lookups) || st.Digests != int64(2*2*(p.Nkz+p.Nqz())) {
		t.Errorf("shared store: %+v, want %d decimations, as many hits, one digest per lead and run", st, lookups)
	}
	if st := small.Stats(); st.Bytes > budget || st.Entries > 3 || st.Evictions < int64(2*lookups-3) {
		t.Errorf("evicting store: %+v", st)
	}
}
