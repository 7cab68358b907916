package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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
// the runs as their own record kind (study-NNNNNN.json).
type Registry struct {
	mu    sync.Mutex
	dir   string
	recs  map[string]*Record
	order []string // insertion order; IDs are monotonic
	seq   int
	// traces holds the Chrome-trace artifacts of WithTrace runs, encoded
	// JSON by run ID; the disk form is <id>.trace.json next to the record.
	traces map[string][]byte

	studies    map[string]*StudyRecord
	studyOrder []string
	studySeq   int
}

// OpenRegistry loads (creating if needed) the registry at dir. Runs and
// studies still marked queued/running are relabelled lost: the process
// that owned them is gone.
func OpenRegistry(dir string) (*Registry, error) {
	r := &Registry{
		dir: dir, recs: map[string]*Record{}, traces: map[string][]byte{},
		studies: map[string]*StudyRecord{},
	}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: registry dir: %w", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
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
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("server: registry decode %s: %w", f, err)
		}
		if rec.Status == StatusQueued || rec.Status == StatusRunning {
			rec.Status = StatusLost
			if err := r.persist(rec.ID, &rec); err != nil {
				return nil, err
			}
		}
		r.recs[rec.ID] = &rec
		r.order = append(r.order, rec.ID)
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "run-")); err == nil && n > r.seq {
			r.seq = n
		}
	}
	studies, err := filepath.Glob(filepath.Join(dir, "study-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(studies)
	for _, f := range studies {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("server: registry read %s: %w", f, err)
		}
		var rec StudyRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("server: registry decode %s: %w", f, err)
		}
		if rec.Status == StatusQueued || rec.Status == StatusRunning {
			rec.Status = StatusLost
			if err := r.persist(rec.ID, &rec); err != nil {
				return nil, err
			}
		}
		r.studies[rec.ID] = &rec
		r.studyOrder = append(r.studyOrder, rec.ID)
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "study-")); err == nil && n > r.studySeq {
			r.studySeq = n
		}
	}
	return r, nil
}

// NewID mints the next run ID (monotonic across daemon restarts).
func (r *Registry) NewID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return fmt.Sprintf("run-%06d", r.seq)
}

// Put stores (a copy of) the record and persists it.
func (r *Registry) Put(rec Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.recs[rec.ID]; !ok {
		r.order = append(r.order, rec.ID)
	}
	r.recs[rec.ID] = &rec
	return r.persist(rec.ID, &rec)
}

// Delete removes a record that never became a run — an admission the
// queue shed after its queued record was written — from the index and the
// data dir. Unknown ids are a no-op.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.recs[id]; !ok {
		return nil
	}
	delete(r.recs, id)
	for i, o := range r.order {
		if o == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	if r.dir == "" {
		return nil
	}
	if err := os.Remove(filepath.Join(r.dir, id+".json")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("server: registry delete %s: %w", id, err)
	}
	return nil
}

// persist writes v as <id>.json in the data dir; an in-memory registry
// persists nothing. Callers hold r.mu or have exclusive access.
func (r *Registry) persist(id string, v any) error {
	if r.dir == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(r.dir, id+".json"), b)
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
	rec, ok := r.recs[id]
	if !ok {
		return Record{}, false
	}
	return *rec, true
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
	var out []Record
	for i := len(r.order) - 1; i >= 0; i-- {
		rec := r.recs[r.order[i]]
		if q.Tenant != "" && rec.Tenant != q.Tenant {
			continue
		}
		if q.Status != "" && rec.Status != q.Status {
			continue
		}
		if q.Key != "" && rec.Key != q.Key {
			continue
		}
		if q.WarmKey != "" && rec.WarmKey != q.WarmKey {
			continue
		}
		if q.Study != "" && rec.Study != q.Study {
			continue
		}
		out = append(out, *rec)
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out
}
