package main

import (
	"encoding/json"
	"os"
	"testing"
)

// Every workload, timed and traced, on the tiny devices: the whole
// harness end to end in a few seconds. Checks that the outputs verify,
// that each mode reports exactly its declared metrics, that no
// end-to-end metric is zero, and that the traced run wrote its spans.
func TestQuickRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight small solves campaigns")
	}
	t.Chdir(t.TempDir()) // the harness writes its scratch under the working directory
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null // the human-readable report is not what is under test
	defer func() { os.Stdout = stdout; null.Close() }()

	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			o := options{workload: w.Name, seed: 3, seconds: 1, trace: trace, quick: true, traceOut: "trace-" + w.Name + ".json"}
			line, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s -trace %d: %v", w.Name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s -trace %d: %d failed of %d", w.Name, trace, line.Failed, line.Attempted)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s -trace %d: %d metrics, %d declared", w.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := line.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s -trace %d: metric %s missing or in unit %q", w.Name, trace, d.Name, v.Unit)
				}
				if trace == 0 && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if trace == 1 {
				for _, must := range []string{"sse.share_pct", "rgf.share_pct", "negf.iters_to_converge", "sse.flops_per_iter", "linalg.gemm_gflops", "qt.new_ms"} {
					if !(line.Metrics[must].Value > 0) {
						t.Errorf("%s: per-layer metric %s = %g", w.Name, must, line.Metrics[must].Value)
					}
				}
				// Exact counts: the same on every run of the same code.
				exact := map[string]map[string]float64{
					"dist_schedules": {"comm.collectives_per_iter": 5, "dist.load_imbalance": 1, "half.fallback_blocks_per_iter": 0},
					"qtd_tenants":    {"server.slot_runs": 12, "server.cache_hit_ratio": 0.4, "server.inflight_twins_computed": 2, "server.shed_count": 0},
				}
				for name, want := range exact[w.Name] {
					if got := line.Metrics[name].Value; got != want {
						t.Errorf("%s: %s = %g, want exactly %g", w.Name, name, got, want)
					}
				}
				b, err := os.ReadFile(o.traceOut)
				var doc struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err != nil || json.Unmarshal(b, &doc) != nil || len(doc.TraceEvents) < 10 {
					t.Errorf("%s: traced pass wrote no usable Chrome trace (%v, %d events)", w.Name, err, len(doc.TraceEvents))
				}
			}
		}
	}
}
