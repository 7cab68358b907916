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
	// result cache, or by the run in flight it joined: no solver slot was
	// consumed, SourceRun names the run that produced the artifact, which
	// may have executed under another plan.
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

	// Key is the content hash of Config's result identity
	// (Config.Identity().Key(), the cache address), shared by every record
	// of one result whatever plan each names; WarmKey is the identity's
	// bias-independent family hash warm starts match on.
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
	// cache; WarmStart means the run was seeded with a converged Σ≷ state
	// — a cached one for a plain run, member 0's for a study member.
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

// studyRecord is one ensemble study's registry row: the base
// configuration the members derive from, the realization axis, the
// member-run lineage, and — once finished — the reduced ensemble
// report. Studies are the JSON bodies of /v1/ensembles responses and
// the study-NNNNNN.json files under the data dir.
type studyRecord struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority,omitempty"`

	// Config is the base resolved configuration; member i runs it with
	// spec.disorder_seed = BaseSeed + i.
	Config   qt.RunConfig `json:"config"`
	Members  int          `json:"members"`
	BaseSeed uint64       `json:"base_seed"`

	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`

	// Progress and provenance counters, updated as members finish.
	DoneMembers int `json:"done_members"`
	CacheHits   int `json:"cache_hits"`
	WarmStarts  int `json:"warm_starts"`

	// MemberRuns lists the member run IDs in member-index order (the
	// reverse direction of Record.Study): the run that answered each
	// member, filled as members finish.
	MemberRuns []string `json:"member_runs,omitempty"`

	WallNs int64 `json:"wall_ns,omitempty"`

	// Report is the reduced ensemble statistics once the study finished —
	// what /v1/ensembles/{id}/report re-encodes.
	Report *report.Ensemble `json:"report,omitempty"`
}

// Registry is the persistent run registry: an in-memory index over
// JSON-on-disk records (one file per run under dir; dir = "" keeps it
// memory-only, the in-process test mode). Ensemble studies live next to
// the runs as their own record kind (study-NNNNNN.json). Both kinds are
// one generic table, read and written directly.
type Registry struct {
	dir     string
	runs    *table[Record]
	studies *table[studyRecord]
	// traces holds the Chrome-trace artifacts of RunConfig.Trace runs of a
	// memory-only registry, encoded JSON by run ID; with a data dir the
	// artifact is <id>.trace.json next to the record, and only there.
	mu     sync.Mutex
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
	studies, err := loadTable(dir, "study-", func(r *studyRecord) (string, *Status) { return r.ID, &r.Status })
	if err != nil {
		return nil, err
	}
	return &Registry{dir: dir, runs: runs, studies: studies, traces: map[string][]byte{}}, nil
}

// table is one kind of registry row: an index by ID, in insertion order,
// over the <prefix>NNNNNN.json files of dir, under its own lock.
type table[T any] struct {
	dir, prefix string
	head        func(*T) (string, *Status) // a row's ID and status

	mu    sync.Mutex
	recs  map[string]*T
	order []string // insertion order; IDs are monotonic
	seq   int
}

// loadTable indexes the records of one kind found under dir (none when
// dir is "").
func loadTable[T any](dir, prefix string, head func(*T) (string, *Status)) (*table[T], error) {
	t := &table[T]{dir: dir, prefix: prefix, head: head, recs: map[string]*T{}}
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
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return fmt.Sprintf("%s%06d", t.prefix, t.seq)
}

// put stores rec (the table's own copy) under its ID and persists it.
func (t *table[T]) put(rec T) error {
	id, _ := t.head(&rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.recs[id]; !ok {
		t.order = append(t.order, id)
	}
	t.recs[id] = &rec
	return t.persist(id, &rec)
}

// get returns a copy of the record.
func (t *table[T]) get(id string) (rec T, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.recs[id]; ok {
		return *p, true
	}
	return rec, false
}

// list returns copies of the matching records, newest first, at most
// limit of them (0 = unlimited).
func (t *table[T]) list(limit int, match func(*T) bool) []T {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// remove drops the record from the index and the data dir — for a run,
// an admission the queue shed after its queued record was written.
// Unknown ids are a no-op.
func (t *table[T]) remove(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// writeAtomic replaces path with b through a temp file and a rename, so a
// reader (or a crash) sees the old file or the new one, never a torn one.
func writeAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// putTrace stores the run's per-phase span recording as its Chrome
// trace-event artifact (the body of GET /v1/runs/{id}/trace): the file
// <id>.trace.json when the registry has a data dir, memory otherwise.
func (r *Registry) putTrace(id string, tr *obs.Trace) error {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return fmt.Errorf("server: encode trace %s: %w", id, err)
	}
	if r.dir != "" {
		return writeAtomic(filepath.Join(r.dir, id+".trace.json"), buf.Bytes())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces[id] = buf.Bytes()
	return nil
}

// getTrace returns the run's Chrome trace JSON from where putTrace
// stored it.
func (r *Registry) getTrace(id string) ([]byte, bool) {
	if r.dir != "" {
		b, err := os.ReadFile(filepath.Join(r.dir, id+".trace.json"))
		return b, err == nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.traces[id]
	return b, ok
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
	return r.runs.list(q.Limit, func(rec *Record) bool {
		return (q.Tenant == "" || rec.Tenant == q.Tenant) &&
			(q.Status == "" || rec.Status == q.Status) &&
			(q.Key == "" || rec.Key == q.Key) &&
			(q.WarmKey == "" || rec.WarmKey == q.WarmKey) &&
			(q.Study == "" || rec.Study == q.Study)
	})
}
