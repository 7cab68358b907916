package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root is generated from the tables in
// metrics.go and workload.go (-benchmark-json); the two must not drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := benchmarkJSON(defaultRunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the metric and workload tables; regenerate it with -benchmark-json")
	}
}

// The limits the benchmark contract puts on names, units, counts and
// bounds.
func TestTablesMeetTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range endToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) is required")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Doc == "" {
			t.Errorf("%s: undocumented", d.Name)
		}
	}
	for _, d := range perLayer {
		use(d.Name)
	}
	b, err := benchmarkJSON(defaultRunSeconds)
	if err != nil || len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json: %d bytes, err %v", len(b), err)
	}
	if defaultRunSeconds < 1 || defaultRunSeconds > 60 {
		t.Errorf("run_seconds %d", defaultRunSeconds)
	}
}

func TestExportKeepsExactlyTheDeclaredMetrics(t *testing.T) {
	m := newMetricSet()
	m.set("solve_s", 1.5)
	m.set("not.a.metric", 9)
	out := m.export(endToEnd)
	if len(out) != len(endToEnd) || out["solve_s"].Value != 1.5 || out["solve_s"].Unit != "s" {
		t.Fatalf("%+v", out)
	}
	if _, ok := out["not.a.metric"]; ok {
		t.Fatal("undeclared metric exported")
	}
	if u := m.undeclared(); len(u) != 1 || u[0] != "not.a.metric" {
		t.Fatalf("undeclared = %v", u)
	}
}
