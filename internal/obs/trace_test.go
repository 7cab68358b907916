package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestNilTracerIsFree pins the disabled-path contract: every method of a
// nil tracer is callable and records nothing — the guarantee that lets
// the solver hot paths carry unconditional instrumentation.
func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	start := tr.Begin()
	if start != 0 {
		t.Errorf("nil Begin = %d, want 0", start)
	}
	tr.End(0, 0, "rgf", "rgf/el", 1, 2, start)
	tr.Add(Span{Name: "x"})
	if tr.Trace() != nil {
		t.Error("nil Trace() should be nil")
	}
	if n := testing.AllocsPerRun(100, func() {
		s := tr.Begin()
		tr.End(0, 0, "bc", "bc/el", 0, 0, s)
	}); n != 0 {
		t.Errorf("nil tracer allocates %v per span, want 0", n)
	}
}

// TestChromeRoundTrip records spans on several ranks/tracks, exports
// Chrome trace-event JSON, parses it back, and checks the schema: one X
// event per span with µs timestamps, pid = rank+1, tid = track, args
// carrying the grid point, plus a process_name metadata event per rank.
func TestChromeRoundTrip(t *testing.T) {
	tr := NewTracer()
	s := tr.Begin()
	tr.End(0, 1, "rgf", "rgf/el", 0, 3, s)
	tr.End(1, 0, "exchange", "exchange/GD", -1, -1, s)
	tr.Add(Span{Name: "sse/tile", Cat: "sse", Rank: 1, Track: 0, I: -1, J: -1, Start: 10, Dur: 20})

	var buf bytes.Buffer
	if err := tr.Trace().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}

	var meta, complete int
	cats := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			cats[ev.Cat] = true
			if ev.Pid < 1 {
				t.Errorf("event %q: pid = %d, want rank+1 >= 1", ev.Name, ev.Pid)
			}
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %q: negative ts/dur (%g/%g)", ev.Name, ev.Ts, ev.Dur)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if meta != 2 { // two distinct ranks
		t.Errorf("metadata events = %d, want 2", meta)
	}
	for _, c := range []string{"rgf", "exchange", "sse"} {
		if !cats[c] {
			t.Errorf("category %q missing from the export", c)
		}
	}
	// The point-solve span must carry its grid coordinates.
	found := false
	for _, ev := range ct.TraceEvents {
		if ev.Name == "rgf/el" {
			found = true
			if ev.Args["i"] != float64(0) || ev.Args["j"] != float64(3) {
				t.Errorf("rgf/el args = %v, want i=0 j=3", ev.Args)
			}
		}
	}
	if !found {
		t.Error("rgf/el event missing")
	}
}

// TestTracerConcurrent records from many goroutines — the -race check
// for the shared-tracer model (all ranks of a world share one).
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := tr.Begin()
				tr.End(rank, 0, "iter", "iter", i, -1, s)
			}
		}(w)
	}
	wg.Wait()
	// Snapshot must hold every span, sorted by start time.
	spans := tr.Trace().Spans
	if len(spans) != workers*per {
		t.Errorf("%d spans, want %d", len(spans), workers*per)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not sorted at %d", i)
		}
	}
}
