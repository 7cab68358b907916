package main

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Med != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("odd sample: %+v", s)
	}
	s = summarize([]float64{4, 1, 3, 2})
	if s.Med != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Fatalf("even sample interpolates between ranks: %+v", s)
	}
	if s := summarize([]float64{7}); s.Med != 7 || s.Q1 != 7 || s.Q3 != 7 || s.TailP != 0 {
		t.Fatalf("single sample: %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.Med != 0 {
		t.Fatalf("empty sample: %+v", s)
	}
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("summarize reordered its input")
	}
}

func TestQuantileSorted(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {1, 50}, {0.5, 30}, {0.9, 46}, {0.125, 15}} {
		if got := quantileSorted(s, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("q=%g: got %g want %g", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Error("empty slice should give NaN")
	}
}

// The tail percentile is the highest one with at least ten samples
// beyond it: p90 needs 100 samples, p95 200, p99 1000.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{19, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("n=%d: got p%d want p%d", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if s := summarize(xs); s.TailP != 90 || math.Abs(s.Tail-89.1) > 1e-9 {
		t.Fatalf("p90 of 0..99: %+v", s)
	}
}

func TestSpread(t *testing.T) {
	if got := summarize([]float64{90, 100, 110, 95, 105}).spread(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("spread = %g, want 0.1", got)
	}
}
