package sse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/tensor"
)

// outputDigest hashes the raw IEEE-754 bits of Σ≷ and Π≷, so any change in
// summation order, fusion or signed zeros shows.
func outputDigest(out *Output) string {
	h := sha256.New()
	var b [16]byte
	for _, data := range [][]complex128{out.SigL.Data, out.SigG.Data, out.PiL.Data, out.PiG.Data} {
		for _, v := range data {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelDigests pins the DaCe-schedule kernels bit for bit. The digests
// were computed at commit eee64ec (the per-block axpyRow/traceDot loops):
// the long-vector stencil, the blocked Π contraction and the halo window
// reorder loops and memory, never the sequence of roundings an output
// element sees.
func TestKernelDigests(t *testing.T) {
	shapes := []struct {
		name             string
		na, bnum, norb   int
		ne, nw           int
		atoms            []int
		elo, ehi         int
		edit             func(*Input) // nil: the random input as drawn
		full, tile, mixd string
	}{
		{
			name: "norb2", na: 12, bnum: 3, norb: 2, ne: 14, nw: 3,
			atoms: []int{1, 4, 5, 9}, elo: 5, ehi: 8,
			full: "7eb02bc4e0ef1e7df4947442dcae874eb94504f13af26df07206ca6b67511b43", tile: "ac861fcd85e7b424b038536599bee5a230b5bb02dee4a4fa809fbba578731747", mixd: "9e7b0ac878f7620a5058a52733f3cc661a6fb7e736366a784b47a643d582124f",
		},
		{
			name: "norb4", na: 9, bnum: 3, norb: 4, ne: 9, nw: 2,
			atoms: []int{0, 3, 6}, elo: 4, ehi: 5,
			full: "5d4bb975e30b259c955acfbed5acec98612e0861d53673074b679efd5d2625c6", tile: "c65f3de601b473599e53e3224899a3aaacb2767040d32e4307831be0c004b356", mixd: "28d5f7439fd3ab8ee6d9abc612b1491e5fc0f3444eea9c073c97628bb1a32d32",
		},
		{
			// Odd Norb: every small-block row ends in a one-element slice.
			// Digests computed at commit 1a57549 (the generic Go loops).
			name: "norb3", na: 9, bnum: 3, norb: 3, ne: 11, nw: 2,
			atoms: []int{0, 3, 4, 8}, elo: 3, ehi: 7,
			full: "23ef319715a43ca003fdda4c2200a26429a6dd284a8fe702fcf264bcb051da8a", tile: "16be0204486906c2033938a35c6d3977e2c99b18fea0efa295f735d6bcbd8121", mixd: "c6e1f9eaea0678f8558fc658fe99af05885dc227f132829123f84d6ab8980895",
		},
		{
			// The stencil's skip rule: every D̃ weight of the pairs (a, 4)
			// is exactly zero, and G≷_44 — which the stencil reads through
			// those weights alone — holds −0, ±Inf and NaN. A skipped
			// direction adds nothing; adding 0·Inf would put NaN into Σ≷
			// of atom 4's neighbours (all three rows change when the skip
			// is removed). Π≷ reads G≷_44 too, and carries its specials.
			// Digests computed at commit c609ec7 (four VecAddMul calls per
			// direction).
			name: "norb3 skip", na: 9, bnum: 3, norb: 3, ne: 11, nw: 2,
			atoms: []int{0, 3, 4, 8}, elo: 3, ehi: 7, edit: zeroPairsFacing(4),
			full: "94a731a1a0d2ceae5b37efc0c4dd30e3b672b7f2d990d31a48f1df835eeb9114", tile: "40ba21097203c12c3e0c12ef52847c4d68506dc7d2211512b53ba65a5788bc47", mixd: "fb8226a7c0fc5364dcc5b347ec6c4202c4c828d1a7fabd9304e988144128b1c2",
		},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			p := device.TestParams(s.na, s.bnum, s.norb)
			p.NE, p.Nomega = s.ne, s.nw
			dev, err := device.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			in := RandomInput(dev, 42)
			if s.edit != nil {
				s.edit(in)
			}
			for _, c := range []struct {
				what string
				k    Kernel
				want string
			}{
				{"DaCe full", DaCe{}, s.full},
				{"DaCe tile", DaCe{Atoms: s.atoms, ELo: s.elo, EHi: s.ehi}, s.tile},
				{"Mixed normalized", Mixed{Normalize: true}, s.mixd},
			} {
				if got := outputDigest(c.k.Compute(in)); got != c.want {
					t.Errorf("%s: digest %s, want %s", c.what, got, c.want)
				}
			}
		})
	}
}

// zeroPairsFacing edits in so that every D̃ weight of the ordered pairs
// (a, b) and (b, a), a a neighbour of b, is exactly +0 — D_bb and the D_ba
// blocks zeroed, D_ab set to D_aa, so the four-block sum cancels exactly —
// and puts −0, ±Inf and NaN (a payload and a sign of its own) into G≷_bb
// at every energy and momentum, one special per block at a rotating
// element. Every other weight and G≷ block stays as drawn.
func zeroPairsFacing(b int) func(*Input) {
	return func(in *Input) {
		dev := in.Dev
		for _, d := range []*tensor.Phonon{in.DL, in.DG} {
			for iq := 0; iq < d.Nqz; iq++ {
				for iw := 0; iw < d.Nw; iw++ {
					clear(d.Block(iq, iw, b, 0))
					for _, a := range dev.Neigh[b] {
						clear(d.Block(iq, iw, b, 1+dev.NeighbourSlot(b, a)))
						copy(d.Block(iq, iw, a, 1+dev.NeighbourSlot(a, b)), d.Block(iq, iw, a, 0))
					}
				}
			}
		}
		negZero, inf := math.Copysign(0, -1), math.Inf(1)
		nan := math.Float64frombits(0x7ff8_0000_dead_beef)
		negNaN := math.Float64frombits(0xfff8_0000_0000_0bad)
		specials := []complex128{complex(negZero, negZero), complex(inf, 1), complex(-inf, negZero), complex(nan, 2), complex(3, negNaN)}
		for _, g := range []*tensor.Electron{in.GL, in.GG} {
			for ik := 0; ik < g.Nkz; ik++ {
				for ie := 0; ie < g.NE; ie++ {
					blk := g.Block(ik, ie, b)
					k := ik*g.NE + ie
					blk[k%len(blk)] = specials[k%len(specials)]
				}
			}
		}
	}
}
