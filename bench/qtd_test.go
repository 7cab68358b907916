package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/report"
	"repro/internal/server"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		rec  server.Record
		want string
	}{
		{server.Record{Status: server.StatusDone}, classComputed},
		{server.Record{Status: server.StatusDone, WarmStart: true}, classWarm},
		{server.Record{Status: server.StatusCached, CacheHit: true}, classCached},
		{server.Record{Status: server.StatusCached, WarmStart: true}, classCached},
		{server.Record{Status: server.StatusFailed}, classFailed},
		{server.Record{Status: server.StatusCancelled}, classFailed},
		{server.Record{Status: server.StatusQueued}, classFailed},
		{server.Record{}, classFailed},
	} {
		if got := classify(tc.rec); got != tc.want {
			t.Errorf("%+v: %s, want %s", tc.rec, got, tc.want)
		}
	}
}

// stubQtd answers POST /v1/runs?stream=sse with a done frame whose record
// is still queued for the first `lose` submissions — what the admission
// race looks like from outside — and a finished record afterwards.
func stubQtd(lose int32) (*httptest.Server, *atomic.Int32) {
	var posts atomic.Int32
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := posts.Add(1)
		rec := server.Record{ID: fmt.Sprintf("run-%06d", n), Status: server.StatusDone, Converged: true, Iterations: 3}
		if n <= lose {
			rec.Status = server.StatusQueued
		}
		w.Header().Set("Content-Type", "text/event-stream")
		report.SSE(w, "run", rec)
		report.SSE(w, "iter", map[string]int{"iter": 0})
		report.SSE(w, "done", rec)
	})), &posts
}

func TestPostRunResubmitsALostAdmission(t *testing.T) {
	ts, posts := stubQtd(1)
	defer ts.Close()
	out := postRun(ts.Client(), ts.URL, request{Tenant: "t0", Name: "seq/0.10"}, nil, -1)
	if out.Err != nil || out.Class != classComputed || out.Lost != 1 || posts.Load() != 2 {
		t.Fatalf("outcome %+v after %d posts", out, posts.Load())
	}
	if out.Record.ID != "run-000002" || out.FirstNs == 0 || out.LatencyNs < out.FirstNs {
		t.Fatalf("outcome %+v", out)
	}
}

func TestPostRunGivesUpAfterTwoResubmissions(t *testing.T) {
	ts, posts := stubQtd(100)
	defer ts.Close()
	out := postRun(ts.Client(), ts.URL, request{Tenant: "t0", Name: "seq/0.10"}, nil, -1)
	if out.Err == nil || out.Class != classFailed || out.Lost != 2 || posts.Load() != 3 {
		t.Fatalf("outcome %+v after %d posts", out, posts.Load())
	}
}

func TestPostRunReportsHTTPErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	out := postRun(ts.Client(), ts.URL, request{Tenant: "t0", Name: "x"}, nil, -1)
	if out.Status != 429 || out.Err == nil || out.Class != classFailed || out.Lost != 0 {
		t.Fatalf("outcome %+v", out)
	}
}

// A cached answer that differs from the run it names as its source, and a
// P=2 variant that differs from its siblings, are correctness failures.
func TestCheckTenants(t *testing.T) {
	ok := func(id, name, class string, cur float64, src string) reqOutcome {
		rec := server.Record{ID: id, Status: server.StatusDone, Converged: true, Iterations: 5, Current: cur, SourceRun: src}
		if class == classCached {
			rec.Status, rec.CacheHit = server.StatusCached, true
		}
		return reqOutcome{Req: request{Tenant: "t0", Name: name}, Status: 200, Record: rec, Class: class}
	}
	good := pass{Requests: []reqOutcome{
		ok("r1", "seq/0.10", classComputed, 1.5, ""),
		ok("r2", "dup:seq/0.10", classCached, 1.5, "r1"),
	}}
	g := &gate{}
	g.checkTenants(good, map[string]goldenEntry{"seq/0.10": {Current: 1.5, Iterations: 5}})
	if g.Failed != 0 || g.Attempted == 0 {
		t.Fatalf("clean pass: %+v", g)
	}
	bad := pass{Requests: []reqOutcome{
		ok("r1", "seq/0.10", classComputed, 1.5, ""),
		ok("r2", "dup:seq/0.10", classCached, 1.5000001, "r1"),
		ok("r3", "dup:seq/0.10", classCached, 1.5, "r9"), // unknown source
	}}
	g = &gate{}
	g.checkTenants(bad, map[string]goldenEntry{"seq/0.10": {Current: 1.6}})
	if g.Failed != 3 {
		t.Fatalf("want 3 failures (golden, cached≠source, unknown source), got %d: %v", g.Failed, g.Failures)
	}
}
