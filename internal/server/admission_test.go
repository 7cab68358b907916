package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestSubmitNeverLosesAdmission hammers submit against idle slot workers.
// Every job context is cancelled up front, so execute finalizes a popped
// job within microseconds and the slots are idle again before the next
// submission — the window in which a worker can pop a job before submit
// has finished admitting it. Every admitted id must end in a terminal
// record: a worker that found no record dropped the run, and a queued
// record written after the worker's final one left it "queued" for ever.
func TestSubmitNeverLosesAdmission(t *testing.T) {
	s, err := New(Config{Slots: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.stop()

	const clients, perClient = 4, 100
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec, j, err := s.submit(tenant, 0, busyConfig(0.2, 1), "")
				if err != nil {
					t.Errorf("%s submission %d: %v", tenant, i, err)
					return
				}
				<-j.done
				got, ok := s.reg.Get(rec.ID)
				if !ok || got.Status != StatusCancelled {
					t.Errorf("%s submission %d: run %s finished with record %q (found %v), want %q",
						tenant, i, rec.ID, got.Status, ok, StatusCancelled)
					return
				}
			}
		}(fmt.Sprintf("t%d", c))
	}
	wg.Wait()
}

// TestShedLeavesNoRecord: a submission the full queue sheds was never a
// run, so the queued record written ahead of the push must be gone again —
// from the index and from the data dir a restart would load.
func TestShedLeavesNoRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Slots: 1, QueueCap: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One job holds the slot, one fills the queue, the third is shed.
	var admitted []string
	shed := 0
	for i := 0; i < 8 && shed == 0; i++ {
		rec, _, err := s.submit("acme", 0, busyConfig(0.2+0.01*float64(i), 40), "")
		switch {
		case err == nil:
			admitted = append(admitted, rec.ID)
		case errors.Is(err, ErrQueueFull):
			shed++
		default:
			t.Fatal(err)
		}
	}
	if shed == 0 {
		t.Fatal("queue never shed")
	}
	if recs := s.reg.List(Query{}); len(recs) != len(admitted) {
		t.Errorf("registry lists %d records for %d admitted runs", len(recs), len(admitted))
	}
	s.Close()
	reopened, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recs := reopened.List(Query{}); len(recs) != len(admitted) {
		t.Errorf("data dir holds %d records for %d admitted runs", len(recs), len(admitted))
	}
}
