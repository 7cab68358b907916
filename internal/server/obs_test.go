package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/qt"
)

// getBody fetches a URL and returns status + body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// A traced distributed run submitted over HTTP yields a Perfetto-loadable
// Chrome trace on GET /v1/runs/{id}/trace, with BC/RGF/SSE/exchange
// coverage for every rank — and the artifact survives a daemon restart
// without confusing the registry loader (run-*.trace.json matches the
// record glob).
func TestServiceTraceEndToEnd(t *testing.T) {
	const ranks = 2
	dir := t.TempDir()
	s, ts := newService(t, Config{Slots: 1, DataDir: dir})

	rc := convergingConfig(0.18)
	rc.Ranks = ranks
	rc.Trace = true
	rec := postRun(t, ts, "acme", 0, rc, http.StatusAccepted)
	waitForStatus(t, s, rec.ID, StatusDone)

	code, body := getBody(t, ts.URL+"/v1/runs/"+rec.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", code, body)
	}
	var ct chromeTrace
	if err := json.Unmarshal(body, &ct); err != nil {
		t.Fatal(err)
	}
	// coverage[rank][cat]: every rank must show the four hot-path phases.
	coverage := map[int]map[string]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		r := ev.Pid - 1
		if coverage[r] == nil {
			coverage[r] = map[string]bool{}
		}
		coverage[r][ev.Cat] = true
	}
	for r := 0; r < ranks; r++ {
		for _, cat := range []string{"bc", "rgf", "sse", "exchange"} {
			if !coverage[r][cat] {
				t.Errorf("rank %d: category %q missing from trace (got %v)", r, cat, coverage[r])
			}
		}
	}

	// An untraced run answers 409 (known, no artifact), an unknown id 404.
	plain := postRun(t, ts, "acme", 0, convergingConfig(0.19), http.StatusAccepted)
	waitForStatus(t, s, plain.ID, StatusDone)
	if code, _ := getBody(t, ts.URL+"/v1/runs/"+plain.ID+"/trace"); code != http.StatusConflict {
		t.Errorf("GET trace of untraced run = %d, want 409", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/runs/run-999999/trace"); code != http.StatusNotFound {
		t.Errorf("GET trace of unknown run = %d, want 404", code)
	}

	// With a data dir the artifact lives on disk only: the registry keeps
	// no in-memory copy for the daemon's lifetime.
	if _, err := os.Stat(filepath.Join(dir, rec.ID+".trace.json")); err != nil {
		t.Errorf("trace artifact not on disk: %v", err)
	}
	s.reg.mu.Lock()
	held := len(s.reg.traces)
	s.reg.mu.Unlock()
	if held != 0 {
		t.Errorf("data-dir registry holds %d traces in memory", held)
	}

	// Restart: the loader must skip the .trace.json artifact and the
	// trace must still be served — from disk, as before it.
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.runs.get(rec.ID); !ok {
		t.Fatalf("record %s lost across restart", rec.ID)
	}
	disk, ok := reg.getTrace(rec.ID)
	if !ok {
		t.Fatalf("trace %s lost across restart", rec.ID)
	}
	if err := json.Unmarshal(disk, &ct); err != nil {
		t.Fatal(err)
	}
}

// chromeTrace is the part of the Chrome trace-event JSON the trace
// checks read.
type chromeTrace struct {
	TraceEvents []struct {
		Ph  string `json:"ph"`
		Cat string `json:"cat"`
		Pid int    `json:"pid"`
	} `json:"traceEvents"`
}

// The Prometheus endpoint exposes the tenant-labeled admission picture
// plus the cache and run-outcome series after traffic has flowed.
func TestServiceMetricsExposition(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1})

	rec := postRun(t, ts, "acme", 0, convergingConfig(0.21), http.StatusAccepted)
	waitForStatus(t, s, rec.ID, StatusDone)
	// Identical resubmission: a cache hit.
	postRun(t, ts, "acme", 0, convergingConfig(0.21), http.StatusOK)

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`qtd_queue_depth{tenant="acme"} 0`,
		`qtd_queue_wait_seconds_count{tenant="acme"} 1`,
		`qtd_cache_hits_total 1`,
		`qtd_cache_misses_total 1`,
		`qtd_runs_total{tenant="acme",status="done"} 1`,
		`qtd_run_duration_seconds_count 1`,
		`qtd_run_iterations_count 1`,
		`qtd_slots_busy 0`,
		`qtd_slots 1`,
		"# TYPE qtd_run_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// A full queue increments the tenant's shed counter.
func TestServiceShedMetric(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1, QueueCap: 1})
	// Occupy the slot and fill the queue.
	first := postRun(t, ts, "acme", 0, busyConfig(0.31, 300), http.StatusAccepted)
	waitForStatus(t, s, first.ID, StatusRunning)
	postRun(t, ts, "acme", 0, busyConfig(0.32, 300), http.StatusAccepted)
	postRun(t, ts, "acme", 0, busyConfig(0.33, 300), http.StatusTooManyRequests)

	rec := httptest.NewRecorder()
	s.met.reg.WritePrometheus(rec)
	if !strings.Contains(rec.Body.String(), `qtd_shed_total{tenant="acme"} 1`) {
		t.Errorf("shed counter missing: %s", rec.Body.String())
	}
}

// The boundary store is the cache-quality picture of a bias family: the
// first bias of a never-seen device decimates its leads, the second finds
// every one of them — hits rise, decimations do not — and both /v1/stats
// and /metrics say so.
func TestServiceBoundaryStore(t *testing.T) {
	s, ts := newService(t, Config{Slots: 1})
	family := func(bias float64) qt.RunConfig {
		rc := convergingConfig(bias)
		rc.Spec.Seed = 0xb0d5 // a structure no other test of this package solves
		return rc
	}

	rec := postRun(t, ts, "acme", 0, family(0.21), http.StatusAccepted)
	waitForStatus(t, s, rec.ID, StatusDone)
	first := getStats(t, ts).BoundaryStore
	if first.Decimations == 0 || first.Entries == 0 || first.Bytes == 0 {
		t.Fatalf("first bias left no boundaries in the store: %+v", first)
	}

	rec = postRun(t, ts, "acme", 0, family(0.27), http.StatusAccepted)
	waitForStatus(t, s, rec.ID, StatusDone)
	second := getStats(t, ts).BoundaryStore
	if second.Decimations != first.Decimations || second.Entries != first.Entries {
		t.Errorf("second bias of the family decimated again: %+v → %+v", first, second)
	}
	if second.Hits <= first.Hits || second.Lookups-first.Lookups != second.Hits-first.Hits {
		t.Errorf("second bias of the family did not hit the store on every lookup: %+v → %+v", first, second)
	}

	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("qtd_boundary_store_hits %d", second.Hits),
		fmt.Sprintf("qtd_boundary_store_decimations %d", second.Decimations),
		fmt.Sprintf("qtd_boundary_store_entries %d", second.Entries),
		"qtd_boundary_store_bytes ", "qtd_boundary_store_lookups ", "qtd_boundary_store_evictions 0", "qtd_boundary_store_digests ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
