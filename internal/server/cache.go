package server

import (
	"container/list"
	"sync"

	"repro/internal/qt"
	"repro/internal/report"
)

// cacheEntry is one content-addressed result artifact: the resolved
// configuration it was computed under, the full facade result
// (including, for runs without ranks, the converged Σ≷/Π≷ state
// near-identical requests warm-start from), the rendered report, and
// the run that produced it (lineage).
type cacheEntry struct {
	Key     string
	WarmKey string
	RunID   string
	Config  qt.RunConfig
	Result  *qt.Result
	Report  *report.Run
}

// CacheStats is the cache telemetry surfaced on /v1/stats.
type CacheStats struct {
	Entries  int   `json:"entries"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	WarmHits int64 `json:"warm_hits"`
	Bytes    int64 `json:"bytes"` // Σ≷ artifact bytes held
}

// cache is the LRU content-addressed result cache, keyed on the result
// identity (qt.RunConfig.Identity().Key()): a request for a result
// already computed — the common case under sweep-heavy traffic, and
// whatever execution plan either names — is answered from here without
// touching a solver slot. Warm scans the same entries by WarmKey (the
// identity's bias-independent family hash) for a converged Σ≷ state to
// seed a near-identical request from.
type cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element

	hits, misses, warmHits int64
}

func newCache(capacity int) *cache {
	return &cache{cap: capacity, ll: list.New(), byKey: map[string]*list.Element{}}
}

// Get returns the entry for an identity key, refreshing its recency.
func (c *cache) Get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// peek returns the entry for a key without touching recency or the
// hit/miss counters — for re-reading an artifact a submit fast-path
// already accounted for (the ensemble runner fetching a cached member's
// full result).
func (c *cache) peek(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry), true
}

// Put stores (or refreshes) an entry and evicts the least recently used
// entries beyond capacity.
func (c *cache) Put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.Key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[e.Key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).Key)
	}
}

// Warm returns the most recently used entry of the same bias-family
// (excluding the exact key, which Get already covers) that carries a
// warm-startable Σ≷ state.
func (c *cache) Warm(warmKey, excludeKey string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if e.WarmKey != warmKey || e.Key == excludeKey {
			continue
		}
		if e.Result == nil || e.Result.FinalState == nil {
			continue
		}
		c.warmHits++
		return e, true
	}
	return nil, false
}

// Stats snapshots the cache counters.
func (c *cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries: c.ll.Len(),
		Hits:    c.hits, Misses: c.misses, WarmHits: c.warmHits,
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.Result != nil && e.Result.FinalState != nil {
			st.Bytes += e.Result.FinalState.Bytes()
		}
	}
	return st
}
