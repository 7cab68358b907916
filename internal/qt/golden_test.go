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
// matrix of the config and plan tests. The digests were taken at commit
// bd65bb6, where qt re-derived dist's tile and pipeline-depth defaults
// itself; reading them from dist's normalised options must not move a
// byte, or every qtd cache entry and registry record would be orphaned.
func TestResolvedConfigGolden(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"defaults", nil, "046d23123674f36e"},
		{"sequential", []Option{WithTolerance(1e-4), WithMaxIterations(7), WithMixing(0.3), WithAnderson(), WithBoundaryCache(false)}, "52885896e8ade827"},
		{"baseline", []Option{WithKernel(Baseline), WithBias(0.1)}, "efec4451727291fe"},
		{"distributed", []Option{WithRanks(4), WithSchedule(Overlap), WithWorkers(2), WithTiles(2, 2), WithPrecision(Mixed), WithErrorProbe()}, "8e760623c4bb63ba"},
		{"ranks", []Option{WithRanks(4), WithPrecision(Mixed)}, "b4c4d0409244268f"},
		{"tiles 1x4", []Option{WithRanks(4), WithTiles(1, 4)}, "668bb536c2f6fdc7"},
		{"tiles 2x?", []Option{WithRanks(4), WithTiles(2, 0)}, "0ff852760ccfe112"},
		{"tiles ?x1", []Option{WithRanks(4), WithTiles(0, 1)}, "e5daa36e35759690"},
		{"overlap", []Option{WithRanks(2), WithSchedule(Overlap)}, "a9bcb2fe04017c96"},
		{"pipeline", []Option{WithRanks(4), WithSchedule(Pipeline)}, "82b051dabab5427e"},
		{"pipeline d=3", []Option{WithRanks(4), WithSchedule(Pipeline), WithPipelineDepth(3)}, "724b8b33fa582084"},
		{"pipeline d=1 w=3", []Option{WithRanks(3), WithSchedule(Pipeline), WithPipelineDepth(1), WithWorkers(3)}, "5f54fbc9a1db1f50"},
		{"traced", []Option{WithRanks(2), WithTrace()}, "6f9c4c5cc56e3cdc"},
	}
	for _, tc := range cases {
		sim, err := New(smallSpec(), tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rc := sim.Config()
		js, err := json.Marshal(rc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ta, te := sim.Tiles()
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n%s\n%s\n%s\n%dx%d",
			sim.PlanString(), js, rc.Key(), rc.WarmKey(), ta, te)))
		if got := hex.EncodeToString(sum[:8]); got != tc.want {
			t.Errorf("%q resolves to %s, want %s (plan %q, config %s)", tc.name, got, tc.want, sim.PlanString(), js)
		}
	}
}
