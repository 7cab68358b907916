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

// outputDigest hashes the IEEE-754 bits of Σ≷ and Π≷ — a phonon tensor's
// Data is the blocks that exist, in (point, atom, slot) order — so any
// change in summation order, fusion or signed zeros shows.
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
// element sees. Every row was re-taken once, at commit 123552f, when
// outputDigest moved from the padded Π≷ storage to the blocks that exist:
// the same outputs, hashed without the zero padding slots. None moved
// when the phonon tensors stopped storing the padding.
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
			full: "c676e526edb0529e628d691e2ae7d23bdf755e5e4c2993cbb384312bc320d12c", tile: "0721f2c297b7c0d3d43dd89e5bdeba2914d1c9a8c8e806182db11e233f259db5", mixd: "de533869d7507f5dfe8f3a679f46f3f20374eff302c6c0e0291546d1716547b9",
		},
		{
			name: "norb4", na: 9, bnum: 3, norb: 4, ne: 9, nw: 2,
			atoms: []int{0, 3, 6}, elo: 4, ehi: 5,
			full: "7b18f299a706a613d407b890d9a34210ad9c77a2b5c4057fc6bcc54b58cf8021", tile: "89cc532e6474ffb964ec0f8c9885fffe3f95c7a12e1e07be6efcf05d0cd97693", mixd: "9ddbe063d81278da74c2d686a586ba6166dc279fe5948940de275f59f8f64b46",
		},
		{
			// Odd Norb: every small-block row ends in a one-element slice.
			// Digests computed at commit 1a57549 (the generic Go loops).
			name: "norb3", na: 9, bnum: 3, norb: 3, ne: 11, nw: 2,
			atoms: []int{0, 3, 4, 8}, elo: 3, ehi: 7,
			full: "bc238d4a924ee5cd191ac253f472d003a62d0e7e0ef80c6e0d331c7ba44fc8ca", tile: "b8fe05ca194cc3c37eecefc1dc35834afc6ce81f82999b46b7db0b62af190f71", mixd: "e65261abe95df010cac1936c6949b5749b1fac85a790c0277709e97ebdb7438c",
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
			full: "04744dbc41d2573567b9d1f2247ce67c1a98f14e444c6a785556b5f7e0b026a7", tile: "5b0b198895b4a7859cc560ad7e36c17fea1269ca1746372230f41e60cf0e5f3c", mixd: "0ac0e289b59c613a43fbbe0c9fb6d44283d94747db0df3131a5fa070c135d68c",
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
					for k, a := range dev.Neigh[b] {
						clear(d.Block(iq, iw, b, 1+k))
						copy(d.Block(iq, iw, a, dev.MirrorSlot(b, 1+k)), d.Block(iq, iw, a, 0))
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
