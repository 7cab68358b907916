package bc

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// decimation returns a compute closure for the lead (d00, tau) that counts
// its executions.
func decimation(d00, tau *linalg.Matrix, runs *int) func() (*Result, error) {
	return func() (*Result, error) {
		*runs++
		return surfaceGF(d00, tau)
	}
}

// TestStoreNoFalseSharing: the key is the lead's content and the bits of
// z — anything that can change a bit of the result changes the key, down
// to one ulp of one element.
func TestStoreNoFalseSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d00, tau := leadBlocks(rng, 6, 0.4, 1e-3)
	s := NewStore(StoreBudget)
	lead := s.DigestLead(d00, tau)
	z := complex(0.4, 1e-3)
	runs := 0
	get := func(k LeadKey) {
		t.Helper()
		if _, err := s.get(k, decimation(d00, tau, &runs)); err != nil {
			t.Fatal(err)
		}
	}
	get(NewLeadKey(lead, z))
	get(NewLeadKey(lead, z))
	if runs != 1 {
		t.Fatalf("the same lead at the same energy decimated %d times, want 1", runs)
	}

	ulp := d00.Clone()
	ulp.Data[7] = complex(math.Nextafter(real(ulp.Data[7]), 1), imag(ulp.Data[7]))
	reshaped := linalg.FromSlice(4, 9, d00.Data)
	for name, k := range map[string]LeadKey{
		"onsite off by one ulp":    NewLeadKey(s.DigestLead(ulp, tau), z),
		"opposite contact (τᴴ)":    NewLeadKey(s.DigestLead(d00, linalg.HInto(linalg.New(6, 6), tau)), z),
		"same bits, another shape": NewLeadKey(s.DigestLead(reshaped, tau), z),
		"another η":                NewLeadKey(lead, complex(0.4, 2e-3)),
		"another energy":           NewLeadKey(lead, complex(math.Nextafter(0.4, 1), 1e-3)),
	} {
		before := runs
		get(k)
		if runs != before+1 {
			t.Errorf("%s: served from the store", name)
		}
	}
	if st := s.Stats(); st.Lookups != 7 || st.Hits != 1 || st.Decimations != 6 || st.Entries != 6 || st.Digests != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// TestStoreBudgetAndLRU: a store with room for three results never holds
// more, and evicts the least recently *used* — a hit refreshes an entry.
func TestStoreBudgetAndLRU(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(11))
	d00, tau := leadBlocks(rng, n, 0.4, 1e-3)
	one := int64(3 * n * n * 16)
	s := NewStore(3*one + one/2)
	lead := s.DigestLead(d00, tau)
	runs := 0
	key := func(i int) LeadKey { return NewLeadKey(lead, complex(0.1*float64(i), 1e-3)) }
	touch := func(i int) (ran bool) {
		t.Helper()
		before := runs
		if _, err := s.get(key(i), decimation(d00, tau, &runs)); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Bytes > 3*one || st.Entries > 3 || st.Bytes != st.Entries*one {
			t.Fatalf("after key %d: %d bytes in %d entries, budget is three results of %d", i, st.Bytes, st.Entries, one)
		}
		return runs > before
	}
	for i := 0; i < 3; i++ {
		touch(i)
	}
	touch(0) // 1 is now the oldest
	touch(3) // evicts 1
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	for _, c := range []struct {
		i   int
		ran bool
	}{{0, false}, {2, false}, {3, false}, {1, true}} {
		if ran := touch(c.i); ran != c.ran {
			t.Errorf("key %d: decimated = %v, want %v", c.i, ran, c.ran)
		}
	}

	// A result larger than the whole budget is returned, not stored.
	tiny := NewStore(one - 1)
	if r, err := tiny.get(key(0), decimation(d00, tau, &runs)); err != nil || r == nil {
		t.Fatalf("over-budget result: %v, %v", r, err)
	}
	if st := tiny.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Errorf("over-budget result was stored: %+v", st)
	}
}

// TestStoreDoesNotKeepFailures: ErrNoConvergence reaches the caller and
// the next lookup of the key decimates again.
func TestStoreDoesNotKeepFailures(t *testing.T) {
	// A 1-D chain inside its band with no broadening never decouples.
	d00, tau := linalg.New(1, 1), linalg.New(1, 1)
	d00.Set(0, 0, 0.3)
	tau.Set(0, 0, -1)
	s := NewStore(StoreBudget)
	c := NewCache(CacheBC)
	c.Store = s
	key := func() LeadKey { return NewLeadKey(s.DigestLead(d00, tau), 0.3) }
	for i := 0; i < 2; i++ {
		_, err := c.GetLead(0, 0, 0, key, func() (*Result, error) { return surfaceGF(d00, tau) })
		if !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("lookup %d: err = %v, want ErrNoConvergence", i, err)
		}
	}
	if st := s.Stats(); st.Decimations != 2 || st.Hits != 0 || st.Entries != 0 {
		t.Errorf("a failed decimation was kept: %+v", st)
	}
	if c.Decimations() != 2 {
		t.Errorf("cache counted %d decimations, want 2", c.Decimations())
	}
}

// TestCacheOverStore: the run cache is the fast path and the store the
// fallback — a second run's first lookup is a miss of its own cache that
// runs no decimation — and NoCache keeps recomputing, store or not.
func TestCacheOverStore(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d00, tau := leadBlocks(rng, 4, 0.4, 1e-3)
	s := NewStore(StoreBudget)
	key := func() LeadKey { return NewLeadKey(s.DigestLead(d00, tau), complex(0.4, 1e-3)) }
	runs := 0
	var results []*Result
	for run := 0; run < 2; run++ {
		c := NewCache(CacheBC)
		c.Store = s
		for i := 0; i < 3; i++ {
			r, err := c.GetLead(1, 2, 3, key, decimation(d00, tau, &runs))
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, r)
		}
		hits, misses := c.Stats()
		if hits != 2 || misses != 1 || c.Decimations() != 1-run {
			t.Errorf("run %d: %d hits, %d misses, %d decimations", run, hits, misses, c.Decimations())
		}
	}
	for _, r := range results {
		if r != results[0] {
			t.Fatal("a hit must return the stored result itself")
		}
	}
	if st := s.Stats(); runs != 1 || st.Lookups != 2 || st.Hits != 1 || st.Digests != 2 {
		t.Errorf("%d decimations, store %+v", runs, st)
	}

	// Without a content key the lookup cannot be shared.
	c := NewCache(CacheBC)
	c.Store = s
	if _, err := c.GetLead(1, 2, 3, nil, decimation(d00, tau, &runs)); err != nil || runs != 2 {
		t.Errorf("Get with a store attached: err %v, %d decimations", err, runs)
	}

	nc := NewCache(NoCache)
	nc.Store = s
	before := s.Stats()
	runs = 0
	for i := 0; i < 5; i++ {
		if _, err := nc.GetLead(1, 2, 3, key, decimation(d00, tau, &runs)); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 5 || nc.Decimations() != 5 {
		t.Errorf("NoCache over a warm store ran %d decimations (counted %d), want one per lookup", runs, nc.Decimations())
	}
	if s.Stats() != before {
		t.Errorf("NoCache touched the store: %+v → %+v", before, s.Stats())
	}
}

// TestStoreConcurrentLookups (run under -race): eight goroutines over
// overlapping keys each see, per key, one result — concurrent misses may
// both decimate, but the first insert wins and every caller gets it.
func TestStoreConcurrentLookups(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d00, tau := leadBlocks(rng, 4, 0.4, 1e-3)
	s := NewStore(StoreBudget)
	lead := s.DigestLead(d00, tau)
	const keys, workers, rounds = 5, 8, 20
	seen := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds*keys; i++ {
				k := (i + w) % keys
				r, err := s.get(NewLeadKey(lead, complex(0.1*float64(k), 1e-3)),
					func() (*Result, error) { return surfaceGF(d00, tau) })
				if err != nil {
					t.Error(err)
					return
				}
				seen[w] = append(seen[w], r)
			}
		}(w)
	}
	wg.Wait()
	byKey := map[int]*Result{}
	for w, rs := range seen {
		for i, r := range rs {
			k := (i + w) % keys
			if first, ok := byKey[k]; ok && first != r {
				t.Fatalf("key %d resolved to two results", k)
			}
			byKey[k] = r
		}
	}
	if st := s.Stats(); st.Entries != keys || st.Lookups != workers*rounds*keys || st.Hits+st.Decimations != st.Lookups {
		t.Errorf("stats = %+v", st)
	}
}
