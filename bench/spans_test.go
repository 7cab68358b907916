package main

import (
	"testing"

	"repro/internal/obs"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps child 1 by 10
		{ID: 3, Parent: 1, Start: 15, End: 20},    // grandchild
		{ID: 4, Parent: 0, Start: 90, End: 120},   // sticks out of the parent: clipped
		{ID: 5, Parent: -1, Start: 200, End: 230}, // childless root
	}
	self := selfTimes(spans)
	want := map[int]int64{
		0: 100 - (50 + 10), // children cover [10,60] and [90,100]
		1: 30 - 5,
		2: 30,
		3: 5,
		4: 30,
		5: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredNs(t *testing.T) {
	sp := func(a, b int64) span { return span{Start: a, End: b} }
	for _, tc := range []struct {
		spans  []span
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[]span{sp(2, 4), sp(6, 8)}, 0, 10, 4},
		{[]span{sp(2, 6), sp(4, 8)}, 0, 10, 6},
		{[]span{sp(4, 8), sp(2, 6)}, 0, 10, 6}, // order does not matter
		{[]span{sp(-5, 3), sp(9, 20)}, 0, 10, 4},
		{[]span{sp(2, 9), sp(3, 4)}, 0, 10, 7}, // nested
		{[]span{sp(20, 30)}, 0, 10, 0},
	} {
		if got := coveredNs(tc.spans, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%v in [%d,%d]: covered %d, want %d", tc.spans, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestAttribute(t *testing.T) {
	o := func(cat string, start, dur int64) obs.Span { return obs.Span{Cat: cat, Start: start, Dur: dur} }
	iter := o("iter", 0, 100)
	spans := []obs.Span{
		iter,
		o("gf", 0, 60),   // phase envelope
		o("bc", 0, 10),   // worker 1
		o("rgf", 10, 30), // worker 1
		o("rgf", 0, 40),  // worker 2, concurrent with both of the above
		o("sse", 60, 30), // leaves [90,100) uncovered
		o("stall", 0, 100),
	}
	a := attribute(spans, []obs.Span{iter})
	want := map[string]int64{
		"bc":   5,      // [0,10) shared with one rgf
		"rgf":  5 + 30, // half of [0,10), all of [10,40)
		"gf":   20,     // [40,60): envelope with nothing deeper
		"sse":  30,
		"iter": 10,
	}
	if a.Wall != 100 {
		t.Fatalf("wall %d", a.Wall)
	}
	var sum int64
	for k, v := range a.By {
		sum += v
		if want[k] != v {
			t.Errorf("%s: %d, want %d", k, v, want[k])
		}
	}
	if sum != a.Wall {
		t.Errorf("attribution sums to %d, wall is %d", sum, a.Wall)
	}
	if got := a.pct("rgf"); got != 35 {
		t.Errorf("rgf share %g%%", got)
	}
}

// Spans that straddle a window are clipped to it, and two windows add up.
func TestAttributeClipsToWindows(t *testing.T) {
	wins := []obs.Span{{Cat: "iter", Start: 0, Dur: 10}, {Cat: "iter", Start: 20, Dur: 10}}
	spans := []obs.Span{{Cat: "task", Start: 5, Dur: 20}} // covers [5,25)
	a := attribute(spans, wins)
	if a.Wall != 20 || a.By["task"] != 10 || a.By["iter"] != 10 {
		t.Fatalf("%+v", a)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.begin("run", "x", -1)
	r.end(id)
	r.addProgram("run", 0, &obs.Trace{})
	if id != -1 || r.snapshot() != nil || r.now() != 0 || r.writeChrome("ignored") != nil {
		t.Fatal("nil recorder must do nothing")
	}
}

func TestRecorderParentsAndRuns(t *testing.T) {
	r := newRecorder()
	root := r.begin("a", "root", -1)
	child := r.begin("a", "child", root)
	open := r.begin("b", "never closed", -1)
	r.end(child)
	r.end(root)
	_ = open
	got := r.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot keeps closed spans only, got %d", len(got))
	}
	if got[1].Parent != got[0].ID || got[0].Parent != -1 || got[0].Run != "a" {
		t.Fatalf("%+v", got)
	}
	if got[0].End < got[1].End || got[1].Start < got[0].Start {
		t.Fatalf("child not inside parent: %+v", got)
	}
}
