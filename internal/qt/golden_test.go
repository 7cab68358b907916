package qt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// TestResolvedConfigGolden pins what a configuration resolves to — the
// plan string, the Config JSON and both cache keys — over the option
// matrix of the config and plan tests, each row built twice: from its
// option list through New, and from the RunConfig that says the same
// thing through NewFromConfig. The digests down to "traced" were taken at
// commit bd65bb6, where qt kept a private twin of RunConfig and
// re-derived dist's tile and pipeline-depth defaults itself; neither
// door may move a byte, or every qtd cache entry and registry record
// would be orphaned. The rows after it came with the single
// configuration; their wire forms give the same digests at its parent.
func TestResolvedConfigGolden(t *testing.T) {
	biased := smallSpec()
	biased.Bias = 0.1
	cases := []struct {
		name string
		opts []Option
		wire RunConfig // over smallSpec() unless it names a Spec
		want string
	}{
		{"defaults", nil, RunConfig{}, "046d23123674f36e"},
		{"sequential", []Option{WithTolerance(1e-4), WithMaxIterations(7), WithMixing(0.3), WithAnderson(), WithBoundaryCache(false)},
			RunConfig{Tolerance: 1e-4, MaxIterations: 7, Mixing: 0.3, Anderson: true, NoBoundaryCache: true}, "52885896e8ade827"},
		{"baseline", []Option{WithKernel(Baseline), WithBias(0.1)}, RunConfig{Spec: biased, Kernel: "omen"}, "efec4451727291fe"},
		{"distributed", []Option{WithRanks(4), WithSchedule(Overlap), WithWorkers(2), WithTiles(2, 2), WithPrecision(Mixed), WithErrorProbe()},
			RunConfig{Ranks: 4, Schedule: "overlap", Workers: 2, TileA: 2, TileE: 2, Precision: "mixed", ErrorProbe: true}, "8e760623c4bb63ba"},
		{"ranks", []Option{WithRanks(4), WithPrecision(Mixed)}, RunConfig{Ranks: 4, Precision: "mixed"}, "b4c4d0409244268f"},
		{"tiles 1x4", []Option{WithRanks(4), WithTiles(1, 4)}, RunConfig{Ranks: 4, TileA: 1, TileE: 4}, "668bb536c2f6fdc7"},
		{"tiles 2x?", []Option{WithRanks(4), WithTiles(2, 0)}, RunConfig{Ranks: 4, TileA: 2}, "0ff852760ccfe112"},
		{"tiles ?x1", []Option{WithRanks(4), WithTiles(0, 1)}, RunConfig{Ranks: 4, TileE: 1}, "e5daa36e35759690"},
		{"overlap", []Option{WithRanks(2), WithSchedule(Overlap)}, RunConfig{Ranks: 2, Schedule: "overlap"}, "a9bcb2fe04017c96"},
		{"pipeline", []Option{WithRanks(4), WithSchedule(Pipeline)}, RunConfig{Ranks: 4, Schedule: "pipeline"}, "82b051dabab5427e"},
		{"pipeline d=3", []Option{WithRanks(4), WithSchedule(Pipeline), WithPipelineDepth(3)},
			RunConfig{Ranks: 4, Schedule: "pipeline", PipelineDepth: 3}, "724b8b33fa582084"},
		{"pipeline d=1 w=3", []Option{WithRanks(3), WithSchedule(Pipeline), WithPipelineDepth(1), WithWorkers(3)},
			RunConfig{Ranks: 3, Schedule: "pipeline", PipelineDepth: 1, Workers: 3}, "5f54fbc9a1db1f50"},
		{"traced", []Option{WithRanks(2), WithTrace()}, RunConfig{Ranks: 2, Trace: true}, "6f9c4c5cc56e3cdc"},
		// A default spelled out is the default: the bytes of "defaults".
		{"defaults spelled", []Option{WithSchedule(Phases), WithPrecision(FP64), WithKernel(DataCentric), WithBoundaryCache(true)},
			RunConfig{Schedule: "phases", Precision: "fp64", Kernel: "dace"}, "046d23123674f36e"},
		// The defaulted tiling is the explicit 1×P one: the bytes of "tiles 1x4".
		{"tiles defaulted", []Option{WithRanks(4)}, RunConfig{Ranks: 4}, "668bb536c2f6fdc7"},
		// A recorded auto plan is used as given by either door, without a
		// probe, and keeps its schedule spelled even when it is the default.
		{"recorded plan", []Option{WithRanks(2), WithAutoPlan(), WithSchedule(Overlap), WithWorkers(4)},
			RunConfig{Ranks: 2, AutoPlan: true, Schedule: "overlap", Workers: 4}, "2656439de1d0f68e"},
		{"recorded phases plan", []Option{WithRanks(2), WithAutoPlan(), WithSchedule(Phases)},
			RunConfig{Ranks: 2, AutoPlan: true, Schedule: "phases"}, "66b9564ad33584f1"},
	}
	digest := func(sim *Simulation) string {
		rc := sim.Config()
		js, err := json.Marshal(rc)
		if err != nil {
			t.Fatal(err)
		}
		ta, te := sim.Tiles()
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n%s\n%s\n%s\n%dx%d",
			sim.PlanString(), js, rc.Key(), rc.WarmKey(), ta, te)))
		return hex.EncodeToString(sum[:8])
	}
	for _, tc := range cases {
		if tc.wire.Spec == (Spec{}) {
			tc.wire.Spec = smallSpec()
		}
		built, err := New(smallSpec(), tc.opts...)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		decoded, err := NewFromConfig(tc.wire)
		if err != nil {
			t.Fatalf("%s: NewFromConfig: %v", tc.name, err)
		}
		for door, sim := range map[string]*Simulation{"New": built, "NewFromConfig": decoded} {
			if got := digest(sim); got != tc.want {
				t.Errorf("%q through %s resolves to %s, want %s (plan %q, config %+v)",
					tc.name, door, got, tc.want, sim.PlanString(), sim.Config())
			}
		}
	}

	// A plan request resolves by probing, so its bytes are the probe's to
	// choose; rebuilt from its own Config it must reproduce them.
	planned, err := New(smallSpec(), WithRanks(2), WithAutoPlan())
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
