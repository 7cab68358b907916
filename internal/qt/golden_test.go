package qt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// TestResolvedConfigGolden pins what a configuration resolves to — the
// plan string, the Config JSON and both cache keys — over the knob
// matrix of the config and plan tests. The digests down to "traced" were
// taken at commit bd65bb6, where qt kept a private twin of RunConfig and
// re-derived dist's tile and pipeline-depth defaults itself; the rows
// after it came with the single configuration. None moved when the
// functional options that wrote the same fields were deleted. No row may
// move a byte, or every qtd cache entry and registry record would be
// orphaned.
func TestResolvedConfigGolden(t *testing.T) {
	cases := goldenConfigs()
	digest := func(sim *Simulation) string {
		rc := sim.Config()
		js, err := json.Marshal(rc)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n%s\n%s\n%s\n%dx%d",
			sim.PlanString(), js, rc.Key(), rc.WarmKey(), rc.TileA, rc.TileE)))
		return hex.EncodeToString(sum[:8])
	}
	for _, tc := range cases {
		if tc.rc.Spec == (Spec{}) {
			tc.rc.Spec = smallSpec()
		}
		sim, err := NewFromConfig(tc.rc)
		if err != nil {
			t.Fatalf("%s: NewFromConfig: %v", tc.name, err)
		}
		if got := digest(sim); got != tc.want {
			t.Errorf("%q resolves to %s, want %s (plan %q, config %+v)",
				tc.name, got, tc.want, sim.PlanString(), sim.Config())
		}
	}

	// A plan request resolves by probing, so its bytes are the probe's to
	// choose; rebuilt from its own Config it must reproduce them.
	planned, err := NewFromConfig(RunConfig{Spec: smallSpec(), Ranks: 2, AutoPlan: true})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewFromConfig(planned.Config())
	if err != nil {
		t.Fatal(err)
	}
	if digest(planned) != digest(rebuilt) {
		t.Errorf("resolved plan drifted across the round trip:\n  %+v\n  %+v", planned.Config(), rebuilt.Config())
	}
}

// goldenConfig is one row of TestResolvedConfigGolden: a configuration,
// over smallSpec() unless it names a Spec, and the digest of what it
// resolves to.
type goldenConfig struct {
	name string
	rc   RunConfig
	want string
}

// goldenConfigs is the knob matrix of the config and plan tests.
func goldenConfigs() []goldenConfig {
	biased := smallSpec()
	biased.Bias = 0.1
	return []goldenConfig{
		{"defaults", RunConfig{}, "046d23123674f36e"},
		{"sequential", RunConfig{Tolerance: 1e-4, MaxIterations: 7, Mixing: 0.3, Anderson: true, NoBoundaryCache: true}, "52885896e8ade827"},
		{"baseline", RunConfig{Spec: biased, Kernel: "omen"}, "efec4451727291fe"},
		{"distributed", RunConfig{Ranks: 4, Schedule: "overlap", Workers: 2, TileA: 2, TileE: 2, Precision: "mixed", ErrorProbe: true}, "8e760623c4bb63ba"},
		{"ranks", RunConfig{Ranks: 4, Precision: "mixed"}, "b4c4d0409244268f"},
		{"tiles 1x4", RunConfig{Ranks: 4, TileA: 1, TileE: 4}, "668bb536c2f6fdc7"},
		{"tiles 2x?", RunConfig{Ranks: 4, TileA: 2}, "0ff852760ccfe112"},
		{"tiles ?x1", RunConfig{Ranks: 4, TileE: 1}, "e5daa36e35759690"},
		{"overlap", RunConfig{Ranks: 2, Schedule: "overlap"}, "a9bcb2fe04017c96"},
		{"pipeline", RunConfig{Ranks: 4, Schedule: "pipeline"}, "82b051dabab5427e"},
		{"pipeline d=3", RunConfig{Ranks: 4, Schedule: "pipeline", PipelineDepth: 3}, "724b8b33fa582084"},
		{"pipeline d=1 w=3", RunConfig{Ranks: 3, Schedule: "pipeline", PipelineDepth: 1, Workers: 3}, "5f54fbc9a1db1f50"},
		{"traced", RunConfig{Ranks: 2, Trace: true}, "6f9c4c5cc56e3cdc"},
		// A default spelled out is the default: the bytes of "defaults".
		{"defaults spelled", RunConfig{Schedule: "phases", Precision: "fp64", Kernel: "dace"}, "046d23123674f36e"},
		// The defaulted tiling is the explicit 1×P one: the bytes of "tiles 1x4".
		{"tiles defaulted", RunConfig{Ranks: 4}, "668bb536c2f6fdc7"},
		// A recorded auto plan is used as given, without a probe, and keeps
		// its schedule spelled even when it is the default.
		{"recorded plan", RunConfig{Ranks: 2, AutoPlan: true, Schedule: "overlap", Workers: 4}, "2656439de1d0f68e"},
		{"recorded phases plan", RunConfig{Ranks: 2, AutoPlan: true, Schedule: "phases"}, "66b9564ad33584f1"},
	}
}
