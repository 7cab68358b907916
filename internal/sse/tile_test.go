package sse

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"
)

// TestTileReadsOnlyItsHaloWindow poisons G≷ with NaN at every energy
// outside [ELo−Nω, EHi+Nω): the tile must not notice — same bits as on the
// clean input, all finite. Tiles narrower than Nω and at both grid edges
// are included, for the fp64 and the mixed kernel.
func TestTileReadsOnlyItsHaloWindow(t *testing.T) {
	in := synthInput(t, 1)
	p := in.Dev.P // NE 10, Nω 3
	nan := complex(math.NaN(), math.NaN())
	for _, tile := range [][2]int{{4, 6}, {5, 6}, {0, 2}, {8, 10}, {3, 7}} {
		elo, ehi := tile[0], tile[1]
		poisoned := &Input{Dev: in.Dev, GL: in.GL.Clone(), GG: in.GG.Clone(), DL: in.DL, DG: in.DG}
		for ik := 0; ik < p.Nkz; ik++ {
			for ie := 0; ie < p.NE; ie++ {
				if ie >= elo-p.Nomega && ie < ehi+p.Nomega {
					continue
				}
				for _, plane := range [][]complex128{poisoned.GL.Plane(ik, ie), poisoned.GG.Plane(ik, ie)} {
					for i := range plane {
						plane[i] = nan
					}
				}
			}
		}
		// Mixed derives its G normalization from the whole tensor, and a NaN
		// maximum would poison the scale — the exchange's concern (it ships
		// finite halos), not the tile's — so the unnormalized kernel stands
		// in for the mixed schedule's reads.
		for _, k := range []Kernel{DaCe{ELo: elo, EHi: ehi}, Mixed{ELo: elo, EHi: ehi}} {
			clean, dirty := k.Compute(in), k.Compute(poisoned)
			for _, data := range [][]complex128{dirty.SigL.Data, dirty.SigG.Data, dirty.PiL.Data, dirty.PiG.Data} {
				for i, v := range data {
					if cmplx.IsNaN(v) || cmplx.IsInf(v) {
						t.Fatalf("%s tile [%d,%d): output element %d = %v: read outside the halo window", k.Name(), elo, ehi, i, v)
					}
				}
			}
			if outputDigest(dirty) != outputDigest(clean) {
				t.Fatalf("%s tile [%d,%d): output differs from the clean run", k.Name(), elo, ehi)
			}
		}
	}
}

// TestTileBounds: a tile that does not fit the device is refused up front
// with a message that names it, instead of surfacing as a slice-bounds
// panic inside a worker goroutine.
func TestTileBounds(t *testing.T) {
	in := synthInput(t, 1) // Na 12, NE 10, Nω 3
	for _, c := range []struct {
		name string
		tile DaCe
		bad  string // substring of the error; "" = valid
	}{
		{"full", DaCe{}, ""},
		{"owned range narrower than Nω", DaCe{ELo: 4, EHi: 6}, ""},
		{"single energy", DaCe{ELo: 5, EHi: 6}, ""},
		{"single energy at the lower edge", DaCe{ELo: 0, EHi: 1}, ""},
		{"single energy at the upper edge", DaCe{ELo: 9, EHi: 10}, ""},
		{"open upper end", DaCe{ELo: 7}, ""},
		{"no atoms", DaCe{Atoms: []int{}}, ""},
		{"negative lower end", DaCe{ELo: -1, EHi: 4}, "[ELo=-1, EHi=4)"},
		{"past the grid", DaCe{ELo: 8, EHi: 11}, "[ELo=8, EHi=11)"},
		{"reversed", DaCe{ELo: 6, EHi: 5}, "[ELo=6, EHi=5)"},
		{"empty", DaCe{ELo: 5, EHi: 5}, "[ELo=5, EHi=5)"},
		{"negative upper end", DaCe{EHi: -3}, "[ELo=0, EHi=-3)"},
		{"atom past the device", DaCe{Atoms: []int{0, 12}}, "atom 12"},
		{"negative atom", DaCe{Atoms: []int{-1}}, "atom -1"},
		{"repeated atom", DaCe{Atoms: []int{3, 4, 3}, ELo: 2, EHi: 5}, "atom 3"},
	} {
		_, err := c.tile.restrict(in)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: valid tile refused: %v", c.name, err)
		case c.bad != "" && err == nil:
			t.Errorf("%s: tile %+v accepted", c.name, c.tile)
		case c.bad != "" && !strings.Contains(err.Error(), c.bad):
			t.Errorf("%s: error %q does not name the tile (%q)", c.name, err, c.bad)
		}
		if c.bad == "" {
			c.tile.Compute(in)
			continue
		}
		for _, k := range []Kernel{c.tile, Mixed{Normalize: true, Atoms: c.tile.Atoms, ELo: c.tile.ELo, EHi: c.tile.EHi}} {
			func() {
				defer func() {
					if r, ok := recover().(error); !ok || !strings.Contains(r.Error(), c.bad) {
						t.Errorf("%s: %s.Compute did not refuse the tile: recovered %v", c.name, k.Name(), r)
					}
				}()
				k.Compute(in)
			}()
		}
	}
}

// TestStatsCountWhatRan: an unrestricted kernel reports the closed-form
// counts it always has (the benchmark's exact sse.matmuls_per_iter and
// sse.flops_per_iter), and a tile reports its own windows — transients on
// the halo, everything else on the owned range — so a TE partition sums to
// the full count plus at most the 2Nω·TE/NE halo overlap.
func TestStatsCountWhatRan(t *testing.T) {
	in := synthInput(t, 1)
	p := in.Dev.P
	pairs := 0
	for _, nb := range in.Dev.Neigh {
		pairs += len(nb)
	}
	nkz, ne, nw, bl := int64(p.Nkz), int64(p.NE), int64(p.Nomega), int64(p.Norb*p.Norb)
	full := DaCe{}.Compute(in).Stats
	if want := int64(pairs) * (12 + 6) * nkz * ne; full.MatMuls != want {
		t.Errorf("full MatMuls = %d, want %d", full.MatMuls, want)
	}
	if want := int64(pairs) * 9 * nkz * nkz * nw * (2*ne*bl*8 + ne*bl*16); full.ScalarOps != want {
		t.Errorf("full ScalarOps = %d, want %d", full.ScalarOps, want)
	}
	for _, te := range []int{2, 3, 5, 10} {
		var sum Stats
		for k := 0; k < te; k++ {
			st := DaCe{ELo: k * p.NE / te, EHi: (k + 1) * p.NE / te}.Compute(in).Stats
			sum.MatMuls += st.MatMuls
			sum.Flops += st.Flops
			sum.ScalarOps += st.ScalarOps
		}
		bound := 1 + 2*float64(p.Nomega*te)/float64(p.NE)
		if sum.ScalarOps < full.ScalarOps || float64(sum.ScalarOps) > float64(full.ScalarOps)*bound {
			t.Errorf("TE=%d: Σ tile ScalarOps %d outside [full %d, full×%.2f]", te, sum.ScalarOps, full.ScalarOps, bound)
		}
		if sum.MatMuls <= full.MatMuls || float64(sum.MatMuls) > float64(full.MatMuls)*bound {
			t.Errorf("TE=%d: Σ tile MatMuls %d outside (full %d, full×%.2f]", te, sum.MatMuls, full.MatMuls, bound)
		}
		if sum.Flops != sum.MatMuls*8*int64(p.Norb*p.Norb*p.Norb) {
			t.Errorf("TE=%d: tile flops do not follow 8n³ per multiplication", te)
		}
	}
}

// TestTileReuseLeavesNoStaleData runs one tile value twice — on one
// input, then on another — and requires the second Output and Stats to
// equal a fresh Compute on the second input bit for bit, for the fp64 and
// the mixed tile, over the whole grid and over a restricted tile: the
// output is zeroed before the Π≷ blocks accumulate into it (a restricted
// tile writes only its own region), and neither the per-worker scratch
// nor the quantized copies carry anything from call to call.
func TestTileReuseLeavesNoStaleData(t *testing.T) {
	dev := synthInput(t, 1).Dev
	first, second := RandomInput(dev, 1), RandomInput(dev, 2)
	for _, c := range []struct {
		name string
		k    interface {
			Kernel
			NewTile(*Input) *Tile
		}
	}{
		{"dace", DaCe{}},
		{"dace tile", DaCe{Atoms: []int{1, 4, 7}, ELo: 2, EHi: 7}},
		{"mixed", Mixed{Normalize: true}},
		{"mixed tile", Mixed{Normalize: true, Atoms: []int{1, 4, 7}, ELo: 2, EHi: 7}},
	} {
		want := c.k.Compute(second)
		tile, out := c.k.NewTile(first), NewOutput(first)
		tile.Compute(first, out)
		tile.Compute(second, out)
		if outputDigest(out) != outputDigest(want) || out.Stats != want.Stats {
			t.Errorf("%s: the reused tile's second output differs from a fresh Compute (stats %+v, want %+v)", c.name, out.Stats, want.Stats)
		}
	}
}

// TestTileReuseAllocatesNothing: once a tile has run, computing into the
// same output allocates nothing of its own — the steady state of a run's
// iterations (goroutine starts may still allocate a runtime descriptor
// now and then, which the bound of less than one per call absorbs).
func TestTileReuseAllocatesNothing(t *testing.T) {
	in := synthInput(t, 1)
	for _, k := range []interface{ NewTile(*Input) *Tile }{DaCe{}, Mixed{Normalize: true}} {
		tile, out := k.NewTile(in), NewOutput(in)
		tile.Compute(in, out)
		if n := testing.AllocsPerRun(100, func() { tile.Compute(in, out) }); n != 0 {
			t.Errorf("%T: %v allocations per reused Compute, want 0", k, n)
		}
	}
}
