package server

import (
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
