package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/qt"
)

// smallSpec mirrors the fast device structure the qt tests run on.
func smallSpec(bias float64) qt.Spec {
	return qt.Spec{Atoms: 12, Slabs: 3, Orbitals: 2, EnergyPoints: 12, PhononModes: 3, Bias: bias}
}

// convergingConfig solves to tolerance in a handful of iterations.
func convergingConfig(bias float64) qt.RunConfig {
	return qt.RunConfig{Spec: smallSpec(bias), MaxIterations: 40, Tolerance: 1e-6}
}

// busyConfig never reaches tolerance: it holds its solver slot for the
// full iteration budget — the controllable load for queueing tests.
func busyConfig(bias float64, iters int) qt.RunConfig {
	return qt.RunConfig{Spec: smallSpec(bias), MaxIterations: iters, Tolerance: 1e-12}
}

func newService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postRun submits a run and decodes the response record (or fails the
// test if the status is unexpected).
func postRun(t *testing.T, ts *httptest.Server, tenant string, priority int, rc qt.RunConfig, wantStatus int) Record {
	t.Helper()
	body, _ := json.Marshal(submitRequest{Tenant: tenant, Priority: priority, Config: rc})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/runs = %d, want %d: %s", resp.StatusCode, wantStatus, raw)
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("decode record: %v: %s", err, raw)
	}
	return rec
}

// waitForStatus polls the registry until the run reaches a terminal (or
// requested) status.
func waitForStatus(t *testing.T, s *Server, id string, want Status) Record {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := s.reg.runs.get(id)
		if ok && rec.Status == want {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec, _ := s.reg.runs.get(id)
	t.Fatalf("run %s stuck in status %s, want %s", id, rec.Status, want)
	return Record{}
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitForGoroutines asserts the goroutine count settles back near the
// baseline (the leak check of the cancellation path).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Two tenants interleave on one solver slot: with tenant A's first job
// running and {A2, A3, B1} queued, fair-share dispatches B's single job
// before A's backlog.
func TestServiceFairShare(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 16})

	a1 := postRun(t, ts, "tenant-a", 0, busyConfig(0.10, 60), http.StatusAccepted)
	waitForStatus(t, s, a1.ID, StatusRunning)
	a2 := postRun(t, ts, "tenant-a", 0, busyConfig(0.12, 20), http.StatusAccepted)
	a3 := postRun(t, ts, "tenant-a", 0, busyConfig(0.14, 20), http.StatusAccepted)
	b1 := postRun(t, ts, "tenant-b", 0, busyConfig(0.16, 20), http.StatusAccepted)

	recs := map[string]Record{}
	for _, r := range []Record{a1, a2, a3, b1} {
		recs[r.ID] = waitForStatus(t, s, r.ID, StatusDone)
	}
	started := func(r Record) time.Time { return recs[r.ID].Started }
	if !started(b1).Before(started(a2)) || !started(a2).Before(started(a3)) {
		t.Fatalf("fair-share violated: B1 %v, A2 %v, A3 %v (want B1 < A2 < A3)",
			started(b1), started(a2), started(a3))
	}
}

// An identical resolved configuration is answered from the cache: same
// result, CacheHit lineage, and no solver slot consumed.
func TestServiceCacheHit(t *testing.T) {
	s, ts := newService(t, Config{Slots: 2, QueueCap: 16})

	first := postRun(t, ts, "acme", 0, convergingConfig(0.30), http.StatusAccepted)
	done := waitForStatus(t, s, first.ID, StatusDone)
	if !done.Converged {
		t.Fatal("first run did not converge")
	}
	slotRuns := getStats(t, ts).SlotRuns

	dup := postRun(t, ts, "other-tenant", 0, convergingConfig(0.30), http.StatusOK)
	if dup.Status != StatusCached || !dup.CacheHit {
		t.Fatalf("duplicate spec: status %s, cache_hit %v; want cached hit", dup.Status, dup.CacheHit)
	}
	if dup.SourceRun != first.ID {
		t.Fatalf("lineage: source_run %s, want %s", dup.SourceRun, first.ID)
	}
	if dup.Current != done.Current || dup.Iterations != done.Iterations {
		t.Fatal("cached answer differs from the original result")
	}
	after := getStats(t, ts)
	if after.SlotRuns != slotRuns {
		t.Fatalf("cache hit consumed a solver slot: slot_runs %d -> %d", slotRuns, after.SlotRuns)
	}
	if after.Cache.Hits == 0 || after.Cache.Entries == 0 {
		t.Fatalf("cache stats not accounted: %+v", after.Cache)
	}
}

// A near-identical request (same family, different bias) warm-starts
// from the cached converged Σ≷ state and converges in fewer iterations
// than the same configuration solved cold.
func TestServiceWarmStart(t *testing.T) {
	s, ts := newService(t, Config{Slots: 2, QueueCap: 16})

	seed := postRun(t, ts, "acme", 0, convergingConfig(0.30), http.StatusAccepted)
	waitForStatus(t, s, seed.ID, StatusDone)

	// Cold reference: the neighbouring bias solved directly.
	near := convergingConfig(0.32)
	sim, err := qt.NewFromConfig(near)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := run.Wait()
	if err != nil || !cold.Converged {
		t.Fatalf("cold reference: converged=%v err=%v", cold != nil && cold.Converged, err)
	}

	warm := postRun(t, ts, "acme", 0, near, http.StatusAccepted)
	rec := waitForStatus(t, s, warm.ID, StatusDone)
	if !rec.WarmStart || rec.SourceRun != seed.ID {
		t.Fatalf("lineage: warm_start=%v source_run=%s, want seeded from %s",
			rec.WarmStart, rec.SourceRun, seed.ID)
	}
	if !rec.Converged {
		t.Fatal("warm-started run did not converge")
	}
	if rec.Iterations >= cold.Iterations {
		t.Fatalf("warm start did not help: %d iterations vs %d cold", rec.Iterations, cold.Iterations)
	}
}

// readSSE reads frames ("event" + decoded data line) until the body
// ends or fn signals to stop.
func readSSE(r io.Reader, fn func(event string, data []byte) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if !fn(event, []byte(strings.TrimPrefix(line, "data: "))) {
				return nil
			}
		}
	}
	return sc.Err()
}

// Submit-and-stream: the SSE response carries the run frame (with the
// id), live iter frames, and the terminal done frame.
func TestServiceSubmitStream(t *testing.T) {
	_, ts := newService(t, Config{Slots: 2, QueueCap: 16})

	body, _ := json.Marshal(submitRequest{Tenant: "acme", Config: convergingConfig(0.20)})
	resp, err := http.Post(ts.URL+"/v1/runs?stream=sse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %s", ct)
	}
	var runID string
	var iters int
	var final Record
	err = readSSE(resp.Body, func(event string, data []byte) bool {
		switch event {
		case "run":
			var rec Record
			json.Unmarshal(data, &rec)
			runID = rec.ID
		case "iter":
			iters++
		case "done":
			json.Unmarshal(data, &final)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if runID == "" || iters == 0 {
		t.Fatalf("stream incomplete: id %q, %d iter frames", runID, iters)
	}
	if final.Status != StatusDone || !final.Converged {
		t.Fatalf("done frame: status %s converged %v", final.Status, final.Converged)
	}
	if iters != final.Iterations {
		t.Fatalf("streamed %d iter frames, run reports %d iterations", iters, final.Iterations)
	}
}

// Killing the streaming client mid-run cancels the run and leaks no
// goroutines.
func TestServiceCancelOnDisconnect(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 16})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(submitRequest{Tenant: "acme", Config: busyConfig(0.25, 500)})
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/runs?stream=sse", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}

	var runID string
	readSSE(resp.Body, func(event string, data []byte) bool {
		if event == "run" {
			var rec Record
			json.Unmarshal(data, &rec)
			runID = rec.ID
		}
		return event != "iter" // hang up after the first live iteration
	})
	cancel() // client gone mid-stream
	resp.Body.Close()

	if runID == "" {
		t.Fatal("run frame never arrived")
	}
	rec := waitForStatus(t, s, runID, StatusCancelled)
	if rec.Iterations >= 500 {
		t.Fatal("run was not cancelled early")
	}
	waitForGoroutines(t, before)
}

// Beyond queue capacity submissions are shed with 429 + Retry-After; a
// queued run can be cancelled before it ever starts.
func TestServiceBackpressureAndCancel(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 1})

	running := postRun(t, ts, "acme", 0, busyConfig(0.10, 500), http.StatusAccepted)
	waitForStatus(t, s, running.ID, StatusRunning)
	queued := postRun(t, ts, "acme", 0, busyConfig(0.12, 500), http.StatusAccepted)

	body, _ := json.Marshal(submitRequest{Tenant: "acme", Config: busyConfig(0.14, 500)})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Cancel the queued job: it must finalize without ever starting.
	delReq, _ := http.NewRequest("DELETE", ts.URL+"/v1/runs/"+queued.ID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, delResp.Body)
	delResp.Body.Close()
	rec := waitForStatus(t, s, queued.ID, StatusCancelled)
	if !rec.Started.IsZero() {
		t.Fatalf("cancelled-while-queued run has Started = %v", rec.Started)
	}

	// Cancel the running job too, so the test tears down promptly.
	delReq, _ = http.NewRequest("DELETE", ts.URL+"/v1/runs/"+running.ID, nil)
	delResp, err = http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, delResp.Body)
	delResp.Body.Close()
	waitForStatus(t, s, running.ID, StatusCancelled)
}

// The registry is queryable over HTTP and a finished run replays both
// its report (in every encoding) and its SSE stream.
func TestServiceRegistryAndReport(t *testing.T) {
	s, ts := newService(t, Config{Slots: 2, QueueCap: 16})
	rec := postRun(t, ts, "acme", 0, convergingConfig(0.28), http.StatusAccepted)
	waitForStatus(t, s, rec.ID, StatusDone)

	resp, err := http.Get(ts.URL + "/v1/runs?tenant=acme&status=done&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Runs  []Record `json:"runs"`
		Count int      `json:"count"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if list.Count != 1 || list.Runs[0].ID != rec.ID {
		t.Fatalf("query = %+v, want the one done acme run", list)
	}

	for format, wantCT := range map[string]string{
		"json": "application/json",
		"csv":  "text/csv",
		"text": "text/plain; charset=utf-8",
	} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/report?format=%s", ts.URL, rec.ID, format))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wantCT {
			t.Fatalf("report %s: status %d content-type %s", format, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if len(raw) == 0 {
			t.Fatalf("report %s: empty body", format)
		}
	}

	// Replayed stream of a finished run.
	resp, err = http.Get(ts.URL + "/v1/runs/" + rec.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string]int{}
	readSSE(resp.Body, func(event string, data []byte) bool {
		frames[event]++
		return true
	})
	resp.Body.Close()
	if frames["run"] != 1 || frames["iter"] == 0 || frames["done"] != 1 {
		t.Fatalf("replayed frames = %v", frames)
	}

	// Unknown id and invalid config are clean client errors.
	resp, _ = http.Get(ts.URL + "/v1/runs/run-999999")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run = %d, want 404", resp.StatusCode)
	}
	bad := qt.RunConfig{Spec: smallSpec(0.1), Schedule: "weird"}
	body, _ := json.Marshal(submitRequest{Tenant: "acme", Config: bad})
	resp, _ = http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config = %d, want 400", resp.StatusCode)
	}
}

// TestNegativeKnobIsBadRequest: a negative integer knob is refused at
// admission, not dropped as "absent" and solved as a sequential default
// run under a 202 — and refused in qt.NewFromConfig's own words (the
// service adds no validation of its own to drift from them).
func TestNegativeKnobIsBadRequest(t *testing.T) {
	_, ts := newService(t, Config{Slots: 1, QueueCap: 4})
	for _, knob := range []string{`"ranks":-2`, `"workers":-1`, `"max_iterations":-1`, `"pipeline_depth":-1`, `"tile_a":-1`, `"tolerance":-1`, `"mixing":2`} {
		config := `{"spec":{"atoms":12,"slabs":3},` + knob + `}`
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"tenant":"acme","config":`+config+`}`))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", knob, resp.StatusCode, msg)
		}
		var rc qt.RunConfig
		if err := json.Unmarshal([]byte(config), &rc); err != nil {
			t.Fatal(err)
		}
		var answer struct{ Error string }
		if err := json.Unmarshal(msg, &answer); err != nil {
			t.Fatalf("%s: %v in %s", knob, err, msg)
		}
		if _, err := qt.NewFromConfig(rc); err == nil || answer.Error != err.Error() {
			t.Errorf("%s: the service answered %q, qt.NewFromConfig says %v", knob, answer.Error, err)
		}
	}
}

// TestBadKnobNamesItsField: a 400 names the JSON field the client sent,
// not a Go option it never sees, and its body is plain JSON — ">=" is not
// HTML-escaped to "\u003e=".
func TestBadKnobNamesItsField(t *testing.T) {
	_, ts := newService(t, Config{Slots: 1, QueueCap: 4})
	for _, c := range []struct{ knobs, field string }{
		{`"ranks":-2`, "ranks"},
		{`"ranks":2,"pipeline_depth":2`, "pipeline_depth"},
		{`"workers":2`, "workers"},
		{`"ranks":2,"workers":4`, "workers"},
		{`"ranks":2,"schedule":"phases","workers":4`, "workers"},
	} {
		body := `{"tenant":"acme","config":{"spec":{"atoms":12,"slabs":3},` + c.knobs + `}}`
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var answer struct{ Error string }
		if err := json.Unmarshal(raw, &answer); err != nil {
			t.Fatalf("%s: %v in %s", c.knobs, err, raw)
		}
		switch {
		case resp.StatusCode != http.StatusBadRequest:
			t.Errorf("%s: status %d (%s), want 400", c.knobs, resp.StatusCode, raw)
		case !strings.Contains(answer.Error, c.field) || strings.Contains(answer.Error, "With"):
			t.Errorf("%s: error %q should name %q and no Go option", c.knobs, answer.Error, c.field)
		case bytes.Contains(raw, []byte(`\u003e`)):
			t.Errorf("%s: body HTML-escapes its JSON: %s", c.knobs, raw)
		}
	}
}

// TestServiceAutoPlanRegistry: an auto-plan submission resolves its
// execution plan at admission (qt.Resolve applies the plan rule), so
// the registry record carries the concrete schedule/worker/depth choice
// from the first Put, and the finished report names the plan with its
// [auto] marker.
func TestServiceAutoPlanRegistry(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 4})
	rc := qt.RunConfig{Spec: smallSpec(0.3), Ranks: 2, AutoPlan: true,
		MaxIterations: 3, Tolerance: 1e-300}
	rec := postRun(t, ts, "acme", 0, rc, http.StatusAccepted)
	if !rec.Config.AutoPlan || rec.Config.Schedule == "" {
		t.Fatalf("admission record lacks the resolved plan: %+v", rec.Config)
	}
	if rec.Config.Workers < 1 {
		t.Fatalf("resolved plan has no worker choice: %+v", rec.Config)
	}

	done := waitForStatus(t, s, rec.ID, StatusDone)
	if done.Config != rec.Config {
		t.Errorf("resolved plan drifted between admission and completion:\n  %+v\n  %+v",
			rec.Config, done.Config)
	}
	if done.Report == nil || !strings.Contains(done.Report.Plan, "[auto]") {
		t.Errorf("finished report does not name the auto plan: %+v", done.Report)
	}

	// The registry view over HTTP exposes the same resolved config.
	resp, err := http.Get(ts.URL + "/v1/runs/" + rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.Config.Schedule != rec.Config.Schedule || !got.Config.AutoPlan {
		t.Errorf("HTTP record lost the plan: %+v", got.Config)
	}
}
