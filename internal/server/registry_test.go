package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/qt"
)

func TestRegistryPersistence(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := qt.RunConfig{Spec: qt.Spec{Atoms: 12, Slabs: 3}}
	now := time.Now().UTC()
	statuses := []Status{StatusDone, StatusQueued, StatusRunning, StatusFailed}
	var ids []string
	for _, st := range statuses {
		id := reg.NewID()
		ids = append(ids, id)
		if err := reg.Put(Record{
			ID: id, Tenant: "acme", Key: "k-" + string(st), WarmKey: "w",
			Config: cfg, Status: st, Submitted: now,
		}); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Runs owned by the dead process are relabelled lost.
	for i, st := range statuses {
		rec, ok := reopened.Get(ids[i])
		if !ok {
			t.Fatalf("record %s missing after reopen", ids[i])
		}
		want := st
		if st == StatusQueued || st == StatusRunning {
			want = StatusLost
		}
		if rec.Status != want {
			t.Fatalf("%s: status %s after reopen, want %s", ids[i], rec.Status, want)
		}
	}
	// IDs keep increasing across restarts.
	if id := reopened.NewID(); id != "run-000005" {
		t.Fatalf("NewID after reopen = %s, want run-000005", id)
	}

	// Query filters and newest-first order.
	lost := reopened.List(Query{Status: StatusLost})
	if len(lost) != 2 {
		t.Fatalf("lost runs = %d, want 2", len(lost))
	}
	if lost[0].ID != ids[2] || lost[1].ID != ids[1] {
		t.Fatalf("lost order = %s, %s; want newest first %s, %s",
			lost[0].ID, lost[1].ID, ids[2], ids[1])
	}
	if got := reopened.List(Query{Tenant: "nobody"}); len(got) != 0 {
		t.Fatalf("tenant filter matched %d records, want 0", len(got))
	}
	if got := reopened.List(Query{Limit: 1}); len(got) != 1 || got[0].ID != ids[3] {
		t.Fatalf("Limit 1 = %v", got)
	}
	if got := reopened.List(Query{Key: "k-done"}); len(got) != 1 || got[0].ID != ids[0] {
		t.Fatalf("key filter = %v", got)
	}
}

func TestRegistryMemoryOnly(t *testing.T) {
	reg, err := OpenRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	id := reg.NewID()
	if err := reg.Put(Record{ID: id, Status: StatusDone}); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(id); !ok {
		t.Fatal("record missing from memory-only registry")
	}
	// Mutating the returned copy must not affect the stored record.
	rec, _ := reg.Get(id)
	rec.Status = StatusFailed
	if again, _ := reg.Get(id); again.Status != StatusDone {
		t.Fatal("Get returned a shared reference, not a copy")
	}
}

// TestPutStudyOwnsMemberRuns: the study runner keeps writing run ids into
// the MemberRuns slice of the record it passed to PutStudy while handlers
// encode what GetStudy returns, so the stored copy must not share it
// (the shared backing array was an intermittent -race failure of the
// study stream and cancel tests).
func TestPutStudyOwnsMemberRuns(t *testing.T) {
	reg, err := OpenRegistry("")
	if err != nil {
		t.Fatal(err)
	}
	rec := StudyRecord{ID: reg.NewStudyID(), Members: 2, MemberRuns: make([]string, 2)}
	if err := reg.PutStudy(rec); err != nil {
		t.Fatal(err)
	}
	rec.MemberRuns[0] = "run-000001"
	if got, _ := reg.GetStudy(rec.ID); got.MemberRuns[0] != "" {
		t.Errorf("stored study record shares the caller's MemberRuns: %v", got.MemberRuns)
	}
}

// TestParentFormatRecordReopens: testdata/run-parent-format.json is a
// registry record written by the commit before the GEMM blocking axis was
// deleted — an auto-planned run whose config carries "gemm_blocking" and
// whose report names it in the plan. A data directory holding it must
// reopen, list the record as stored, and replay: resubmitting the stored
// config verbatim (unknown field included) runs the recorded plan.
func TestParentFormatRecordReopens(t *testing.T) {
	stored, err := os.ReadFile("testdata/run-parent-format.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stored, []byte(`"gemm_blocking": "64x64x128"`)) {
		t.Fatal("the fixture lost the field it exists to carry")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "run-000001.json"), stored, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newService(t, Config{Slots: 1, QueueCap: 4, DataDir: dir})

	listed := s.Registry().List(Query{Status: StatusDone})
	if len(listed) != 1 || listed[0].ID != "run-000001" {
		t.Fatalf("reopened registry lists %+v", listed)
	}
	old := listed[0]
	if !old.Config.AutoPlan || old.Config.Schedule != "overlap" || old.Config.Workers != 4 {
		t.Errorf("stored plan knobs lost on reopen: %+v", old.Config)
	}
	if old.Report == nil || old.Report.Plan != "overlap w=4 gemm=64x64x128 [auto]" {
		t.Errorf("stored report is history and must read as written: %+v", old.Report)
	}

	// Replay the stored request body, field for field.
	var raw struct {
		Config json.RawMessage `json:"config"`
	}
	if err := json.Unmarshal(stored, &raw); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		bytes.NewReader([]byte(`{"tenant":"acme","config":`+string(raw.Config)+`}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("replay = %d, decode error %v", resp.StatusCode, err)
	}
	if rec.ID != "run-000002" {
		t.Errorf("replay got id %s, want the id after the stored record's", rec.ID)
	}
	done := waitForStatus(t, s, rec.ID, StatusDone)
	if done.Config != old.Config {
		t.Errorf("replayed config differs from the stored one:\n  %+v\n  %+v", done.Config, old.Config)
	}
	if done.Report == nil || done.Report.Plan != "overlap w=4 [auto]" {
		t.Errorf("replay ran plan %+v, want the recorded schedule and workers", done.Report)
	}
	if math.Float64bits(done.Current) != math.Float64bits(old.Current) {
		t.Errorf("replay current %v != recorded %v: the blocking never was part of the result", done.Current, old.Current)
	}
}
