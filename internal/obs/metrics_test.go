package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketEdges pins the Prometheus edge semantics: an
// observation exactly on a bucket edge counts into that bucket (le is
// inclusive), one just above rolls to the next, and values beyond the
// last edge land in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edges", "edge test", []float64{1, 2.5, 10})

	h.Observe(1)    // == first edge → bucket le=1
	h.Observe(1.01) // → le=2.5
	h.Observe(2.5)  // == edge → le=2.5
	h.Observe(10)   // == last edge → le=10
	h.Observe(10.5) // → +Inf
	h.Observe(-3)   // below every edge → le=1

	want := []int64{2, 2, 1, 1}
	got := make([]int64, len(h.counts))
	for i := range h.counts {
		got[i] = h.counts[i].Load()
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: count = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.count.Load() != 6 {
		t.Errorf("Count = %d, want 6", h.count.Load())
	}
	if math.Abs(h.sum()-22.01) > 1e-12 {
		t.Errorf("Sum = %g, want 22.01", h.sum())
	}
}

// TestConcurrentCounters hammers one counter, one gauge, and one
// histogram from many goroutines — the -race check that the lock-free
// update paths are clean and lose no increments.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("hits", "h", "tenant").With("acme")
	g := r.Gauge("depth", "g")
	h := r.Histogram("lat", "l", []float64{1, 10})

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()

	if c.value() != workers*per {
		t.Errorf("counter = %g, want %d", c.value(), workers*per)
	}
	if g.value() != 0 {
		t.Errorf("gauge = %g, want 0", g.value())
	}
	if h.count.Load() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.count.Load(), workers*per)
	}
}

// TestPrometheusExposition is the exposition golden: families in
// registration order, series sorted by label values, histogram with
// cumulative buckets, +Inf, sum and count, and escaped label values.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	q := r.GaugeVec("qtd_queue_depth", "Jobs waiting per tenant.", "tenant")
	q.With("beta").Add(2)
	q.With("acme").Add(3)
	runs := r.CounterVec("qtd_runs_total", "Finished runs.", "tenant", "status")
	runs.With("acme", "done").Add(5)
	h := r.Histogram("qtd_run_duration_seconds", "Run wall time.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)
	r.GaugeFunc("qtd_slots", "Solver slots.", func() float64 { return 4 })
	esc := r.CounterVec("weird", "Label escaping.", "name")
	esc.With("a\"b\\c\nd").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP qtd_queue_depth Jobs waiting per tenant.
# TYPE qtd_queue_depth gauge
qtd_queue_depth{tenant="acme"} 3
qtd_queue_depth{tenant="beta"} 2
# HELP qtd_runs_total Finished runs.
# TYPE qtd_runs_total counter
qtd_runs_total{tenant="acme",status="done"} 5
# HELP qtd_run_duration_seconds Run wall time.
# TYPE qtd_run_duration_seconds histogram
qtd_run_duration_seconds_bucket{le="0.1"} 1
qtd_run_duration_seconds_bucket{le="1"} 2
qtd_run_duration_seconds_bucket{le="+Inf"} 3
qtd_run_duration_seconds_sum 30.55
qtd_run_duration_seconds_count 3
# HELP qtd_slots Solver slots.
# TYPE qtd_slots gauge
qtd_slots 4
# HELP weird Label escaping.
# TYPE weird counter
weird{name="a\"b\\c\nd"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpBuckets checks the helper's geometric layout.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.25, 2, 4)
	want := []float64{0.25, 0.5, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestDuplicateRegistrationPanics pins that re-registering a name is a
// programming error, not a silent overwrite.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x", "second")
}
