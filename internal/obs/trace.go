package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one recorded phase of a run: what ran (Name within category
// Cat), where (Rank, and Track separating concurrent lanes within the
// rank — 0 is the rank-serial lane, point solves and executor workers
// get their own), over which (i, j) grid point (-1 when not a point
// solve), and when (nanosecond offsets from the tracer's start).
type Span struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	Rank  int    `json:"rank"`
	Track int    `json:"track"`
	I     int    `json:"i"`
	J     int    `json:"j"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// Tracer records spans for one run. A nil Tracer is the disabled state:
// every method is safe to call on it and does nothing, so instrumented
// code pays one nil check per seam — no allocation, no lock — when
// tracing is off. Recording is mutex-guarded and safe from any number
// of goroutines (solver workers, executor workers, all ranks of a
// simulated world share one tracer).
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer; its clock zero is now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin returns the current trace clock (ns since start) to later pass
// to End. On a nil tracer it returns 0 without reading the clock.
func (t *Tracer) Begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// Offset returns instant at on the trace clock (ns since start), which
// places a record timed from at, such as an executor run's, on the trace
// exactly. On a nil tracer it returns 0.
func (t *Tracer) Offset(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.t0))
}

// End records a span from start (a Begin value) to now. No-op on nil.
// Pass i, j = -1 when the span is not a grid-point solve.
func (t *Tracer) End(rank, track int, cat, name string, i, j int, start int64) {
	if t == nil {
		return
	}
	t.Add(Span{Name: name, Cat: cat, Rank: rank, Track: track, I: i, J: j, Start: start, Dur: t.Begin() - start})
}

// Add appends a fully formed span — the raw hook for a caller that
// already measured its own interval. No-op on nil.
func (t *Tracer) Add(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Trace snapshots the recorded spans into an immutable Trace, sorted by
// start time. Nil tracer yields nil.
func (t *Tracer) Trace() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	return &Trace{Spans: spans}
}

// Trace is a finished span recording — what a Result carries and what
// the qtd registry stores per run.
type Trace struct {
	Spans []Span `json:"spans"`
}

// chromeEvent is one trace-event of the Chrome/Perfetto JSON format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format; load
// the serialized bytes in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// chrome converts the trace into trace-event form: one complete ("X")
// event per span, processes named per rank (pid = rank+1), threads per
// track, plus the metadata events naming them.
func (tr *Trace) chrome() *chromeTrace {
	ct := &chromeTrace{DisplayTimeUnit: "ns"}
	ranks := map[int]bool{}
	for _, sp := range tr.Spans {
		if !ranks[sp.Rank] {
			ranks[sp.Rank] = true
			ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: sp.Rank + 1, Tid: 0,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", sp.Rank)},
			})
		}
		ev := chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			Ts: float64(sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
			Pid: sp.Rank + 1, Tid: sp.Track,
		}
		if sp.I >= 0 || sp.J >= 0 {
			ev.Args = map[string]any{"i": sp.I, "j": sp.J}
		}
		ct.TraceEvents = append(ct.TraceEvents, ev)
	}
	return ct
}

// WriteChrome serializes the trace as Chrome trace-event JSON.
func (tr *Trace) WriteChrome(w io.Writer) error {
	return json.NewEncoder(w).Encode(tr.chrome())
}
