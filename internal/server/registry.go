package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/qt"
	"repro/internal/report"
)

// Status is a run's lifecycle state in the registry.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
	// StatusCached marks a request answered from the content-addressed
	// result cache: no solver slot was consumed, SourceRun names the run
	// that produced the artifact.
	StatusCached Status = "cached"
	// StatusLost marks a run found queued/running when the registry was
	// reopened: the daemon died underneath it.
	StatusLost Status = "lost"
)

// Record is one registry row: the resolved spec + options, the run's
// lifecycle, a telemetry summary, and the artifact lineage (which cached
// entry answered or seeded it). Records are the JSON bodies of
// GET /v1/runs responses and the per-run files under the data dir.
type Record struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority,omitempty"`

	// Key is the canonical content hash of Config (the cache address);
	// WarmKey the bias-independent family hash warm starts match on.
	Key     string       `json:"key"`
	WarmKey string       `json:"warm_key"`
	Config  qt.RunConfig `json:"config"`

	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`

	// Telemetry summary of the finished (or partial) run.
	Converged  bool    `json:"converged"`
	Iterations int     `json:"iterations"`
	Current    float64 `json:"current"`
	WallNs     int64   `json:"wall_ns"`

	// Lineage: CacheHit means the response was served straight from the
	// cache; WarmStart means the run was seeded with a cached Σ≷ state.
	// SourceRun names the producing run in both cases. Study names the
	// ensemble study this run is a member of, if any.
	CacheHit  bool   `json:"cache_hit,omitempty"`
	WarmStart bool   `json:"warm_start,omitempty"`
	SourceRun string `json:"source_run,omitempty"`
	Study     string `json:"study,omitempty"`

	// Report is the full rendered run report (trace included) once the
	// run finished — what /v1/runs/{id}/report re-encodes.
	Report *report.Run `json:"report,omitempty"`
}

// Registry is the persistent run registry: an in-memory index over
// JSON-on-disk records (one file per run under dir; dir = "" keeps it
// memory-only, the in-process test mode). Ensemble studies live next to
// the runs as their own record kind (study-NNNNNN.json). Both kinds are
// one table; the exported methods are its spellings per kind, under the
// registry's lock.
type Registry struct {
	mu      sync.Mutex
	dir     string
	runs    *table[Record]
	studies *table[StudyRecord]
	// traces holds the Chrome-trace artifacts of WithTrace runs, encoded
	// JSON by run ID; the disk form is <id>.trace.json next to the record.
	traces map[string][]byte
}

// OpenRegistry loads (creating if needed) the registry at dir. Runs and
// studies still marked queued/running are relabelled lost: the process
// that owned them is gone.
func OpenRegistry(dir string) (*Registry, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: registry dir: %w", err)
		}
	}
	runs, err := loadTable(dir, "run-", func(r *Record) (string, *Status) { return r.ID, &r.Status })
	if err != nil {
		return nil, err
	}
	studies, err := loadTable(dir, "study-", func(r *StudyRecord) (string, *Status) { return r.ID, &r.Status })
	if err != nil {
		return nil, err
	}
	return &Registry{dir: dir, runs: runs, studies: studies, traces: map[string][]byte{}}, nil
}

// table is one kind of registry row: an index by ID, in insertion order,
// over the <prefix>NNNNNN.json files of dir. It has no lock of its own;
// the Registry's guards it.
type table[T any] struct {
	dir, prefix string
	recs        map[string]*T
	order       []string // insertion order; IDs are monotonic
	seq         int
}

// loadTable indexes the records of one kind found under dir (none when
// dir is ""). head points at a row's ID and status.
func loadTable[T any](dir, prefix string, head func(*T) (string, *Status)) (*table[T], error) {
	t := &table[T]{dir: dir, prefix: prefix, recs: map[string]*T{}}
	if dir == "" {
		return t, nil
	}
	files, err := filepath.Glob(filepath.Join(dir, prefix+"*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue // run-NNNNNN.trace.json artifacts match the record glob
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("server: registry read %s: %w", f, err)
		}
		rec := new(T)
		if err := json.Unmarshal(b, rec); err != nil {
			return nil, fmt.Errorf("server: registry decode %s: %w", f, err)
		}
		id, status := head(rec)
		if *status == StatusQueued || *status == StatusRunning {
			*status = StatusLost
			if err := t.persist(id, rec); err != nil {
				return nil, err
			}
		}
		t.recs[id] = rec
		t.order = append(t.order, id)
		if n, err := strconv.Atoi(strings.TrimPrefix(id, prefix)); err == nil && n > t.seq {
			t.seq = n
		}
	}
	return t, nil
}

// newID mints the next ID of the kind (monotonic across daemon restarts).
func (t *table[T]) newID() string {
	t.seq++
	return fmt.Sprintf("%s%06d", t.prefix, t.seq)
}

// put stores rec (the table's own copy) under id and persists it.
func (t *table[T]) put(id string, rec T) error {
	if _, ok := t.recs[id]; !ok {
		t.order = append(t.order, id)
	}
	t.recs[id] = &rec
	return t.persist(id, &rec)
}

// get returns a copy of the record.
func (t *table[T]) get(id string) (rec T, ok bool) {
	if p, ok := t.recs[id]; ok {
		return *p, true
	}
	return rec, false
}

// list returns copies of the matching records, newest first, at most
// limit of them (0 = unlimited).
func (t *table[T]) list(limit int, match func(*T) bool) []T {
	var out []T
	for i := len(t.order) - 1; i >= 0; i-- {
		if rec := t.recs[t.order[i]]; match(rec) {
			out = append(out, *rec)
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out
}

// remove drops the record from the index and the data dir. Unknown ids
// are a no-op.
func (t *table[T]) remove(id string) error {
	if _, ok := t.recs[id]; !ok {
		return nil
	}
	delete(t.recs, id)
	t.order = slices.DeleteFunc(t.order, func(o string) bool { return o == id })
	if t.dir == "" {
		return nil
	}
	if err := os.Remove(filepath.Join(t.dir, id+".json")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("server: registry delete %s: %w", id, err)
	}
	return nil
}

// persist writes rec as <id>.json in the data dir; an in-memory table
// persists nothing.
func (t *table[T]) persist(id string, rec *T) error {
	if t.dir == "" {
		return nil
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(t.dir, id+".json"), b)
}

// NewID mints the next run ID (monotonic across daemon restarts).
func (r *Registry) NewID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs.newID()
}

// Put stores (a copy of) the record and persists it.
func (r *Registry) Put(rec Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs.put(rec.ID, rec)
}

// Delete removes a record that never became a run — an admission the
// queue shed after its queued record was written — from the index and the
// data dir. Unknown ids are a no-op.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs.remove(id)
}

// writeAtomic replaces path with b through a temp file and a rename, so a
// reader (or a crash) sees the old file or the new one, never a torn one.
func writeAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// PutTrace stores the run's per-phase span recording as its Chrome
// trace-event artifact (the body of GET /v1/runs/{id}/trace), persisted
// as <id>.trace.json when the registry has a data dir.
func (r *Registry) PutTrace(id string, tr *obs.Trace) error {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return fmt.Errorf("server: encode trace %s: %w", id, err)
	}
	b := buf.Bytes()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces[id] = b
	if r.dir == "" {
		return nil
	}
	return writeAtomic(filepath.Join(r.dir, id+".trace.json"), b)
}

// GetTrace returns the run's Chrome trace JSON: from memory for runs of
// this process, falling back to the data dir for runs of a previous one.
func (r *Registry) GetTrace(id string) ([]byte, bool) {
	r.mu.Lock()
	b, ok := r.traces[id]
	dir := r.dir
	r.mu.Unlock()
	if ok {
		return b, true
	}
	if dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(filepath.Join(dir, id+".trace.json"))
	if err != nil {
		return nil, false
	}
	return b, true
}

// Get returns a copy of the record.
func (r *Registry) Get(id string) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs.get(id)
}

// Query filters the registry; zero fields match everything.
type Query struct {
	Tenant  string
	Status  Status
	Key     string
	WarmKey string
	Study   string // ensemble-study lineage filter
	Limit   int    // 0 = unlimited
}

// List returns matching records, newest first.
func (r *Registry) List(q Query) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs.list(q.Limit, func(rec *Record) bool {
		return (q.Tenant == "" || rec.Tenant == q.Tenant) &&
			(q.Status == "" || rec.Status == q.Status) &&
			(q.Key == "" || rec.Key == q.Key) &&
			(q.WarmKey == "" || rec.WarmKey == q.WarmKey) &&
			(q.Study == "" || rec.Study == q.Study)
	})
}
