package main

import (
	"math"
	"sort"
)

// summary is the order-statistics digest every timing metric is reported
// as: the median, the quartiles, the extremes and the sample count.
type summary struct {
	N                     int
	Min, Q1, Med, Q3, Max float64
	// Tail is the highest percentile with at least ten samples beyond it
	// (0 when N < 20: no percentile above the median qualifies) and TailP
	// names it (90 for p90). Printed, never gated.
	Tail  float64
	TailP int
}

// summarize digests xs (which it does not modify).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantileSorted(s, 0.25), Med: quantileSorted(s, 0.5), Q3: quantileSorted(s, 0.75),
	}
	if p := tailPercentile(len(s)); p > 0 {
		out.TailP, out.Tail = p, quantileSorted(s, float64(p)/100)
	}
	return out
}

// median is summarize(xs).Med for callers that need only that.
func median(xs []float64) float64 { return summarize(xs).Med }

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of the ascending
// slice s by linear interpolation between closest ranks — the "inclusive"
// method, which returns s[0] at q=0 and s[n-1] at q=1.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n == 1:
		return s[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailPercentile picks the highest of p99/p95/p90 that leaves at least
// ten samples beyond it in a sample of n, or 0 when none does.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// spread is the interquartile distance as a share of the median — the
// steadiness measure the benchmark contract gates on.
func (s summary) spread() float64 {
	if s.Med == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Med)
}
