package bc

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/linalg"
)

// StoreBudget is the resident-byte bound of the store a process shares
// across its solves (qt owns that instance): room for ~680 results of
// 64×64 blocks. It is a constant, not a knob — a device whose boundaries
// outgrow it is still pinned by its run's Cache and merely stops sharing.
const StoreBudget = 128 << 20

// LeadDigest identifies a semi-infinite lead by content: SHA-256 over the
// shapes and the raw IEEE-754 bits of its onsite and coupling blocks.
type LeadDigest [sha256.Size]byte

// LeadKey is the content key of one decimation: everything SurfaceGFInto's
// result is a function of — the lead, the bits of the complex energy z
// (which carries the broadening η) and the resolved stopping rule.
type LeadKey struct {
	Lead     LeadDigest
	zRe, zIm uint64
	tol      uint64
	maxIter  int
}

// NewLeadKey keys the decimation of lead at z under (tol, maxIter), zeros
// resolved to the defaults exactly as SurfaceGFInto resolves them.
func NewLeadKey(lead LeadDigest, z complex128, tol float64, maxIter int) LeadKey {
	tol, maxIter = stoppingRule(tol, maxIter)
	return LeadKey{
		Lead: lead,
		zRe:  math.Float64bits(real(z)), zIm: math.Float64bits(imag(z)),
		tol: math.Float64bits(tol), maxIter: maxIter,
	}
}

// StoreStats are the store's counters since it was created. Bytes and
// Entries are the resident state; the rest only grow.
type StoreStats struct {
	Lookups     int64 `json:"lookups"`
	Hits        int64 `json:"hits"`
	Decimations int64 `json:"decimations"` // compute closures run (misses, stored or not)
	Evictions   int64 `json:"evictions"`
	Digests     int64 `json:"digests"` // leads hashed by DigestLead
	Bytes       int64 `json:"bytes"`
	Entries     int64 `json:"entries"`
}

// Store shares boundary results across the solves of a process. The
// decimation is a pure function of its LeadKey — never of the bias, the
// scattering state, the schedule or the rank count — so a result computed
// by one solve is, bit for bit, the result every later solve of the same
// lead would compute (the paper's "Cache BC" argument of §7.1.2, extended
// from iterations to runs). It sits under the per-run Cache, which stays
// the index-keyed fast path and pins what a live run uses; the store is
// bounded by a byte budget with least-recently-used eviction, and holds
// only successful results, which it never modifies. Safe for concurrent
// use; compute runs outside the lock, and of two concurrent misses of one
// key the first insert wins, so every caller sees one value per key.
type Store struct {
	budget int64

	mu      sync.Mutex
	entries map[LeadKey]*list.Element // of *storeEntry
	lru     list.List                 // front = most recently used
	stats   StoreStats                // Entries is filled by Stats
}

type storeEntry struct {
	key   LeadKey
	res   *Result
	bytes int64
}

// NewStore returns an empty store holding at most budget bytes of results.
func NewStore(budget int64) *Store {
	return &Store{budget: budget, entries: make(map[LeadKey]*list.Element)}
}

// resultBytes is what the store charges for a result: the three retained
// matrices.
func resultBytes(r *Result) int64 {
	var n int64
	for _, m := range [...]*linalg.Matrix{r.Surface, r.SigmaR, r.Gamma} {
		n += int64(len(m.Data)) * 16
	}
	return n
}

// DigestLead hashes a lead's blocks into its content identity. Callers
// memoize it per lead: it reads both blocks once (131 KB at 64×64).
func (s *Store) DigestLead(onsite, coupling *linalg.Matrix) LeadDigest {
	h := sha256.New()
	var buf [4096]byte
	for _, m := range [...]*linalg.Matrix{onsite, coupling} {
		binary.LittleEndian.PutUint64(buf[:8], uint64(m.Rows))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(m.Cols))
		n := 16
		for _, v := range m.Data {
			if n == len(buf) {
				h.Write(buf[:])
				n = 0
			}
			binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(buf[n+8:], math.Float64bits(imag(v)))
			n += 16
		}
		h.Write(buf[:n])
	}
	var d LeadDigest
	h.Sum(d[:0])
	s.mu.Lock()
	s.stats.Digests++
	s.mu.Unlock()
	return d
}

// Get returns the stored result of k or runs compute and stores what it
// returns. A failed decimation is returned and not stored; a result
// larger than the whole budget is returned and not stored.
func (s *Store) Get(k LeadKey, compute func() (*Result, error)) (*Result, error) {
	s.mu.Lock()
	s.stats.Lookups++
	if el, ok := s.entries[k]; ok {
		s.stats.Hits++
		s.lru.MoveToFront(el)
		r := el.Value.(*storeEntry).res
		s.mu.Unlock()
		return r, nil
	}
	s.stats.Decimations++
	s.mu.Unlock()

	r, err := compute()
	if err != nil {
		return nil, err
	}
	size := resultBytes(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok { // a concurrent miss got here first
		s.lru.MoveToFront(el)
		return el.Value.(*storeEntry).res, nil
	}
	if size > s.budget {
		return r, nil
	}
	for s.stats.Bytes+size > s.budget {
		old := s.lru.Remove(s.lru.Back()).(*storeEntry)
		delete(s.entries, old.key)
		s.stats.Bytes -= old.bytes
		s.stats.Evictions++
	}
	s.entries[k] = s.lru.PushFront(&storeEntry{key: k, res: r, bytes: size})
	s.stats.Bytes += size
	return r, nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = int64(len(s.entries))
	return st
}
