package negf

import (
	"testing"

	"repro/internal/bc"
	"repro/internal/device"
)

// TestPrepareBCMatchesInSolvePath warms the boundary cache through the
// standalone prepare methods and checks the point solves (a) hit the
// cache instead of recomputing and (b) produce bitwise the results of the
// unwarmed path.
func TestPrepareBCMatchesInSolvePath(t *testing.T) {
	p := device.TestParams(9, 3, 2)
	p.NE = 4
	p.Nomega = 2
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}

	cold := NewPointSolver(dev, bc.CacheBC)
	warm := NewPointSolver(dev, bc.CacheBC)
	h := dev.Hamiltonian(0)
	phi := dev.Dynamical(0)

	sh := NewShard(dev, [][2]int{{0, 1}}, [][2]int{{0, 1}})
	if err := warm.PrepareElectronBC(sh, 0); err != nil {
		t.Fatal(err)
	}
	if err := warm.PreparePhononBC(sh, 0); err != nil {
		t.Fatal(err)
	}
	if hits, misses := warm.BC.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("after prepare: hits=%d misses=%d, want 0/4", hits, misses)
	}

	rw, err := warm.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.SolveElectronPoint(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := warm.BC.Stats(); hits != 2 {
		t.Fatalf("electron solve should hit both warmed contacts, hits=%d", hits)
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
	if hits, _ := warm.BC.Stats(); hits != 4 {
		t.Fatalf("phonon solve should hit both warmed contacts, hits=%d", hits)
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
