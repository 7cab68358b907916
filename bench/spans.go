package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one bench-side interval around a call into a layer: what ran,
// when (ns since the recorder's start), the span that caused it (-1 for a
// root) and the run it belongs to, so the spans of one solve or request
// share an identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder is the tracing-off state: begin/end/add do nothing, so the
// timed passes run the same code as the traced pass minus the recording.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// program holds the solver's own spans (qt.WithTrace), rebased onto
	// the recorder clock, kept only for the Chrome export.
	program []programSpans
}

type programSpans struct {
	run    string
	offset int64
	trace  *obs.Trace
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// begin opens a span and returns its id for end (and as a parent).
func (r *recorder) begin(run, name string, parent int) int {
	if r == nil {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: start, End: -1})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// addProgram attaches a solver-side trace whose clock zero was the
// recorder time offset.
func (r *recorder) addProgram(run string, offset int64, tr *obs.Trace) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	r.program = append(r.program, programSpans{run: run, offset: offset, trace: tr})
	r.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (children may overlap each
// other — concurrent requests under one phase — so the covered part is
// the union of their intervals, clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - coveredNs(children[s.ID], s.Start, s.End)
	}
	return self
}

// coveredNs is the length of the union of the spans' intervals clipped
// to [lo, hi].
func coveredNs(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if curHi < curLo || x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// catDepth orders the solver's span categories by nesting: the iteration
// envelope contains the sequential GF-phase envelope and the executor
// tasks, which contain the per-point boundary and RGF solves. "stall"
// spans (pipeline fence/discard markers) overlay the tasks they describe
// and take no time of their own.
func catDepth(cat string) int {
	switch cat {
	case "iter":
		return 0
	case "gf":
		return 1
	case "task", "exchange", "reduce", "sse":
		return 2
	case "bc", "rgf":
		return 3
	}
	return -1
}

// attribution is the outcome of attribute: nanoseconds of the windows'
// wall time per category, summing to Wall exactly.
type attribution struct {
	Wall int64
	By   map[string]int64
}

func (a attribution) pct(cat string) float64 {
	if a.Wall == 0 {
		return 0
	}
	return 100 * float64(a.By[cat]) / float64(a.Wall)
}

// attribute splits the wall time of the given windows (the iteration
// envelopes) among the categories of spans active inside them. At every
// instant the deepest active spans own the time, shared equally when
// several run at once (two point solves on two workers); time inside a
// window with nothing deeper active belongs to the window's own
// category — its self time. The result therefore reconciles with the
// window wall by construction, and the "iter" entry is what no layer
// span accounts for.
func attribute(spans []obs.Span, windows []obs.Span) attribution {
	out := attribution{By: map[string]int64{}}
	type event struct {
		t     int64
		open  bool
		depth int
		cat   string
	}
	for _, w := range windows {
		lo, hi := w.Start, w.Start+w.Dur
		out.Wall += hi - lo
		var evs []event
		for _, s := range spans {
			d := catDepth(s.Cat)
			if d <= 0 {
				continue
			}
			a, b := max(s.Start, lo), min(s.Start+s.Dur, hi)
			if b <= a {
				continue
			}
			evs = append(evs, event{a, true, d, s.Cat}, event{b, false, d, s.Cat})
		}
		// Closes sort before opens at the same instant so back-to-back
		// spans never count as overlapping.
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].t != evs[j].t {
				return evs[i].t < evs[j].t
			}
			return !evs[i].open && evs[j].open
		})
		active := map[int]map[string]int{} // depth → cat → open count
		cursor := lo
		flush := func(to int64) {
			dt := to - cursor
			cursor = to
			if dt <= 0 {
				return
			}
			deepest, n := -1, 0
			for d, cats := range active {
				c := 0
				for _, k := range cats {
					c += k
				}
				if c > 0 && d > deepest {
					deepest, n = d, c
				}
			}
			if deepest < 0 {
				out.By[w.Cat] += dt
				return
			}
			var given int64
			cats := make([]string, 0, len(active[deepest]))
			for c, k := range active[deepest] {
				if k > 0 {
					cats = append(cats, c)
				}
			}
			sort.Strings(cats)
			for _, c := range cats {
				share := dt * int64(active[deepest][c]) / int64(n)
				out.By[c] += share
				given += share
			}
			out.By[cats[0]] += dt - given // integer-division remainder
		}
		for _, e := range evs {
			flush(e.t)
			if active[e.depth] == nil {
				active[e.depth] = map[string]int{}
			}
			if e.open {
				active[e.depth][e.cat]++
			} else {
				active[e.depth][e.cat]--
			}
		}
		flush(hi)
	}
	return out
}

// chromeEvent mirrors obs.ChromeEvent with the bench-side arguments.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the recorded spans — the bench-side ones on pid 0
// (one thread per run id) and each solver-side trace on its ranks' pids,
// rebased onto the same clock — as Chrome trace-event JSON.
func (r *recorder) writeChrome(path string) error {
	if r == nil || path == "" {
		return nil
	}
	var evs []chromeEvent
	evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: 0, Args: map[string]any{"name": "bench"}})
	tids := map[string]int{}
	for _, s := range r.snapshot() {
		tid, ok := tids[s.Run]
		if !ok {
			tid = len(tids) + 1
			tids[s.Run] = tid
			evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: tid, Args: map[string]any{"name": s.Run}})
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 0, Tid: tid, Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run},
		})
	}
	r.mu.Lock()
	program := append([]programSpans(nil), r.program...)
	r.mu.Unlock()
	for i, p := range program {
		base := 100 * (i + 1) // one pid block per traced run
		named := map[int]bool{}
		for _, sp := range p.trace.Spans {
			pid := base + sp.Rank
			if !named[pid] {
				named[pid] = true
				evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
					Args: map[string]any{"name": fmt.Sprintf("%s rank %d", p.run, sp.Rank)}})
			}
			evs = append(evs, chromeEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "X",
				Ts: float64(p.offset+sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
				Pid: pid, Tid: sp.Track, Args: map[string]any{"run": p.run, "i": sp.I, "j": sp.J},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return fmt.Errorf("trace out: %w", err)
	}
	return f.Close()
}
