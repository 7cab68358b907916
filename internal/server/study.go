package server

import (
	"slices"
	"time"

	"repro/internal/qt"
	"repro/internal/report"
)

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
	// reverse direction of Record.Study). Filled as members are admitted.
	MemberRuns []string `json:"member_runs,omitempty"`

	WallNs int64 `json:"wall_ns,omitempty"`

	// Report is the reduced ensemble statistics once the study finished —
	// what /v1/ensembles/{id}/report re-encodes.
	Report *report.Ensemble `json:"report,omitempty"`
}

// newStudyID mints the next study ID (monotonic across restarts).
func (r *Registry) newStudyID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.studies.newID()
}

// putStudy stores a copy of the study record and persists it. The copy
// owns its MemberRuns: the study runner keeps filling the caller's slice
// while handlers encode what GetStudy returned.
func (r *Registry) putStudy(rec studyRecord) error {
	rec.MemberRuns = slices.Clone(rec.MemberRuns)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.studies.put(rec.ID, rec)
}

// getStudy returns a copy of the study record.
func (r *Registry) getStudy(id string) (studyRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.studies.get(id)
}

// studyQuery filters the study listing; zero fields match everything.
type studyQuery struct {
	Tenant string
	Status Status
	Limit  int // 0 = unlimited
}

// listStudies returns matching study records, newest first.
func (r *Registry) listStudies(q studyQuery) []studyRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.studies.list(q.Limit, func(rec *studyRecord) bool {
		return (q.Tenant == "" || rec.Tenant == q.Tenant) &&
			(q.Status == "" || rec.Status == q.Status)
	})
}
