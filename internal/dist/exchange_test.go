package dist

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/model"
	"repro/internal/negf"
	"repro/internal/sse"
)

// TestLoopExchangeIsSSEExchange: the SSE exchange of one loop iteration
// is byte for byte the stand-alone SSE-phase exchange decomp.RunDaCe
// performs on a synthetic input at the same tiling (fp64 volumes depend
// on shapes, not values) — which is why paperbench -table comm's DaCe
// column is the loop's measured traffic — and both stay within the
// analytic model, which also charges each rank its locally owned halo.
func TestLoopExchangeIsSSEExchange(t *testing.T) {
	dev := testDevice(t)
	for _, c := range []struct{ p, ta, te int }{{2, 1, 2}, {4, 2, 2}, {4, 1, 4}, {8, 4, 2}} {
		t.Run(fmt.Sprintf("P%d_%dx%d", c.p, c.ta, c.te), func(t *testing.T) {
			opts := Options{Ranks: c.p}
			opts.Ta, opts.TE = c.ta, c.te
			opts.MaxIter, opts.Tol = 1, 1e-300
			res, err := Run(dev, opts)
			if err != nil && !errors.Is(err, negf.ErrNotConverged) {
				t.Fatal(err)
			}
			loop := res.IterTrace[0].SSEBytes

			_, st, err := decomp.RunDaCe(comm.NewWorld(c.p), sse.RandomInput(dev, 1), c.ta, c.te)
			if err != nil {
				t.Fatal(err)
			}
			if loop == 0 || loop != st.BytesSent {
				t.Errorf("loop exchange %d B != SSE-phase exchange %d B", loop, st.BytesSent)
			}
			if bound := model.DaCeCommVolume(dev.P, c.ta, c.te); float64(loop) > bound {
				t.Errorf("measured %d B exceeds the modelled %.0f B", loop, bound)
			}
		})
	}
}
