package sse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/device"
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
