// Package obs is the dependency-free observability layer: a small
// metrics registry (counters, gauges, histograms, optionally labeled)
// with Prometheus text exposition, and a per-run span tracer exported as
// chrome trace-event JSON (Perfetto-loadable).
//
// Overhead contract: everything is opt-in and nil-safe. A nil *Tracer
// records nothing — every recording method is a single nil check, no
// allocation, no atomic — so instrumented hot paths (the negf point
// solves, the dist exchanges) cost nothing when tracing is off. Metric
// updates are lock-free atomics; label lookup takes one mutex, so hot
// loops should hold the resolved *Counter/*Histogram, not call With per
// event.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. Families expose in registration order, series
// within a family in sorted label order, so the output is deterministic.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// family is one named metric with a fixed label schema and one series
// per label-value combination.
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64      // histograms only
	fn              func() float64 // *Func metrics: read at exposition time

	mu     sync.Mutex
	series map[string]metric
	keys   []string // sorted lazily at exposition
}

type metric interface {
	write(w io.Writer, fam *family, labelValues []string) error
}

func (r *Registry) register(name, help, typ string, labels []string, buckets []float64, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: labels, buckets: buckets, fn: fn,
		series: map[string]metric{},
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// labelKey joins label values with an unprintable separator; it is the
// series map key.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func (f *family) with(values []string, mk func() metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	k := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[k]
	if !ok {
		m = mk()
		f.series[k] = m
		f.keys = append(f.keys, k)
	}
	return m
}

// ── Counter ──────────────────────────────────────────────────────────

// Counter is a monotonically increasing value.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter by v (v must be >= 0; negative deltas are
// a programming error and are dropped).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// value returns the current count.
func (c *Counter) value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, f *family, lv []string) error {
	return writeSample(w, f.name, f.labels, lv, "", "", c.value())
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, nil, nil)
	return f.with(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", labels, nil, nil)}
}

// With returns (creating on first use) the series for the label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() metric { return &Counter{} }).(*Counter)
}

// ── Gauge ────────────────────────────────────────────────────────────

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Add increments by v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// value returns the current value.
func (g *Gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, f *family, lv []string) error {
	return writeSample(w, f.name, f.labels, lv, "", "", g.value())
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil, nil)
	return f.with(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, "gauge", labels, nil, nil)}
}

// With returns (creating on first use) the series for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(values, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, nil, fn)
}

// ── Histogram ────────────────────────────────────────────────────────

// Histogram counts observations into cumulative buckets (Prometheus
// semantics: bucket le=x counts observations <= x; an observation equal
// to an edge lands in that edge's bucket).
type Histogram struct {
	buckets []float64
	counts  []atomic.Int64 // len(buckets)+1; last is +Inf overflow
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with edge >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// sum returns the sum of observed values.
func (h *Histogram) sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(w io.Writer, f *family, lv []string) error {
	var cum int64
	for i, edge := range h.buckets {
		cum += h.counts[i].Load()
		if err := writeSample(w, f.name+"_bucket", f.labels, lv, "le", formatFloat(edge), float64(cum)); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.buckets)].Load()
	if err := writeSample(w, f.name+"_bucket", f.labels, lv, "le", "+Inf", float64(cum)); err != nil {
		return err
	}
	if err := writeSample(w, f.name+"_sum", f.labels, lv, "", "", h.sum()); err != nil {
		return err
	}
	return writeSample(w, f.name+"_count", f.labels, lv, "", "", float64(h.count.Load()))
}

// Histogram registers an unlabeled histogram with the given ascending
// bucket edges.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(buckets)
	f := r.register(name, help, "histogram", nil, buckets, nil)
	return f.with(nil, func() metric { return newHistogram(buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	checkBuckets(buckets)
	return &HistogramVec{r.register(name, help, "histogram", labels, buckets, nil)}
}

// With returns (creating on first use) the series for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(values, func() metric { return newHistogram(v.f.buckets) }).(*Histogram)
}

func checkBuckets(buckets []float64) {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket edge")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram bucket edges must ascend")
		}
	}
}

// ExpBuckets returns n edges starting at start, each factor times the
// previous — the standard latency/size bucket layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// ── Exposition ───────────────────────────────────────────────────────

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		if f.fn != nil {
			if err := writeSample(w, f.name, nil, nil, "", "", f.fn()); err != nil {
				return err
			}
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		f.mu.Unlock()
		sort.Strings(keys)
		for _, k := range keys {
			f.mu.Lock()
			m := f.series[k]
			f.mu.Unlock()
			var lv []string
			if len(f.labels) > 0 {
				lv = strings.Split(k, "\x1f")
			}
			if err := m.write(w, f, lv); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves WritePrometheus — mount it on /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// writeSample renders one sample line; extraK/extraV append one more
// label (the histogram's le).
func writeSample(w io.Writer, name string, labels, values []string, extraK, extraV string, v float64) error {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 || extraK != "" {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(values[i]))
			sb.WriteByte('"')
		}
		if extraK != "" {
			if len(labels) > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(extraK)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(extraV))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
