package decomp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/sse"
)

// hashVec feeds the length and the raw IEEE-754 bits of v into h, so a
// moved segment, a changed order or a nil-vs-empty buffer all show.
func hashVec(h hash.Hash, v []complex128) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(len(v)))
	h.Write(b[:8])
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(x)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(x)))
		h.Write(b[:])
	}
}

func hashSend(h hash.Hash, send [][]complex128) [][]complex128 {
	for _, buf := range send {
		hashVec(h, buf)
	}
	return send
}

// exchangeDigests runs the four-stage exchange of one (Ta, TE, precision)
// configuration and returns two digests, each folded over the ranks in
// rank order: wire — every rank's four packed send buffers, per
// destination — and state — every rank's G≷/D≷ input tensors after
// UnpackG/UnpackD and its Σ≷/Π≷ output tensors after UnpackSigma/UnpackPi.
func exchangeDigests(t *testing.T, in *sse.Input, ta, te int, prec Precision) (wire, state string) {
	t.Helper()
	l := NewDaCeLayout(in.Dev, ta, te)
	src := NewOMENLayout(in.Dev.P, l.P())
	atomSets := l.AtomSets()
	wires := make([]hash.Hash, l.P())
	states := make([]hash.Hash, l.P())
	err := comm.NewWorld(l.P()).Run(func(c *comm.Comm) error {
		r := c.Rank()
		hw, hs := sha256.New(), sha256.New()
		wires[r], states[r] = hw, hs
		local := localInput(in, func(ik, ie int) bool { return src.PairOwner(ik, ie) == r },
			func(iq, m int) bool { return src.PhononOwner(iq, m) == r })
		pl := NewDaCePlan(r, l, src, atomSets, local).WithPrecision(prec)
		pl.UnpackG(c.Alltoallv(hashSend(hw, pl.PackG())))
		pl.UnpackD(c.Alltoallv(hashSend(hw, pl.PackD())))
		for _, v := range [][]complex128{local.GL.Data, local.GG.Data, local.DL.Data, local.DG.Data} {
			hashVec(hs, v)
		}
		if prec == FP64 {
			// unpack∘pack is the identity on the tile's window: every
			// plane the kernel will read equals the global input's.
			checkTileWindow(t, l, r, atomSets, local, in)
		}
		pl.ComputeTile()
		pl.UnpackSigma(c.Alltoallv(hashSend(hw, pl.PackSigma())))
		pl.UnpackPi(c.Alltoallv(hashSend(hw, pl.PackPi())))
		out := pl.Output()
		for _, v := range [][]complex128{out.SigL.Data, out.SigG.Data, out.PiL.Data, out.PiG.Data} {
			hashVec(hs, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fold := func(hs []hash.Hash) string {
		all := sha256.New()
		for _, h := range hs {
			all.Write(h.Sum(nil))
		}
		return hex.EncodeToString(all.Sum(nil))
	}
	return fold(wires), fold(states)
}

// checkTileWindow asserts that, after exchanges #1 and #2 under FP64,
// rank r holds the global G≷ on (its atom set) × (its energy halo) and
// the global D≷ on its atom set for every (qz, ω), bit for bit.
func checkTileWindow(t *testing.T, l *DaCeLayout, r int, atomSets [][]int, local, global *sse.Input) {
	p := global.Dev.P
	myTa, myTe := l.TileOf(r)
	elo, ehi := l.EnergyHalo(myTe)
	same := func(a, b []complex128) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, a := range atomSets[myTa] {
		for ik := 0; ik < p.Nkz; ik++ {
			for ie := elo; ie < ehi; ie++ {
				if !same(local.GL.Block(ik, ie, a), global.GL.Block(ik, ie, a)) ||
					!same(local.GG.Block(ik, ie, a), global.GG.Block(ik, ie, a)) {
					t.Errorf("rank %d: G≷(kz=%d, E=%d, atom %d) differs from the global input", r, ik, ie, a)
					return
				}
			}
		}
		for iq := 0; iq < p.Nqz(); iq++ {
			for m := 0; m < p.Nomega; m++ {
				for s := 0; s < global.DL.NbP1; s++ {
					if !same(local.DL.Block(iq, m, a, s), global.DL.Block(iq, m, a, s)) ||
						!same(local.DG.Block(iq, m, a, s), global.DG.Block(iq, m, a, s)) {
						t.Errorf("rank %d: D≷(qz=%d, ω=%d, atom %d) differs from the global input", r, iq, m+1, a)
						return
					}
				}
			}
		}
	}
}

// TestExchangeDigests pins the wire contract of the four Fig. 5
// exchanges bit for bit. The digests were computed at commit bd65bb6
// (eight hand-written Pack*/Unpack* loop nests); the descriptor-driven
// pack and unpack must put the same segments in the same order on the
// wire and land them in the same planes, fp64 and mixed, on divisible
// and non-divisible energy splits.
func TestExchangeDigests(t *testing.T) {
	in := sse.RandomInput(testInput(t).Dev, 7)
	want := map[string][2]string{
		"1x2/fp64":  {"2ea922dfdde6a0d2990351fd71a7df0af5e9f1a9ff4fad58e0bf436827a07e48", "a2e12f51f4a22dc80b921e28e61295d295ce73be3157aeee6684b0441c6154d8"},
		"1x2/mixed": {"182d33ad6e9355d3049b65dfb75bfacea2226c33f22348a59020a826d0b32aa1", "93d74fb3d7a32be69cc78aca55185a8d5671bc43bfea1d1d67dc8e5b8abc1728"},
		"2x1/fp64":  {"90b9eb57b50d6599377f4aa6937b3d3589d88c5e2e36de31fc8b7b868be1c49c", "8609fab2aab3bb28d024950af1696072121f06a59df6fd955a59572aa496faf1"},
		"2x1/mixed": {"61d6bfcc566179f253cf6d2d62f52fee06fa57daec23e292496bc3e22366fff7", "3af6d3bc291ce8eda9cdad75e131d4c4c31555e61bb72023bc4e10596aefa197"},
		"2x2/fp64":  {"d661ac33c1df339689074d6ddbf7ca8bbbac36e301124ca52fe27c63819a7c39", "19a95b9da245cbd08d59c75d5649f464bb44c15ae2312faab74588c9ccea1b72"},
		"2x2/mixed": {"6fca825241d20d9087d5cb596834db9bd7dd27af5c7810037678f345811eeb36", "38b2c1e6460c0fab82a55c40d4cc03f2990155a1d4e00ee6608ff1936be36cf2"},
		"1x3/fp64":  {"7013252d371febc149e0b6aec7781a2bb67b079bcc4d794bd6edd8c5220b0a31", "2ef6851f1195e8ecc9edf6f8c4a9bb88f549b7e5859197e7f26a475920921419"},
		"1x3/mixed": {"4039a76ab6281fa3c9982ac874dc0dd04f25fabce62d8a3d941fba5deec016de", "ec5aa55ab8701d3f0d7cf9b5805ac0a71bbd8ca5df7e163695cc95cc9f313b71"},
		"3x2/fp64":  {"44821f6f5b2f4fa6f32d9047c4e4d963ead31baf0c83b0826a2864060e505daa", "30fa061014a51a0561f46cd792f3e496978019f1d27c2af2adc200f2f00b67e8"},
		"3x2/mixed": {"c9a0dffaa4770f98578cc47b984cdbb4f9aea630128d20305b5bb95c8e263559", "a09013b49a427ab695f0ed1673adab9ee01b6dee97ce78082d56fbdd804dd407"},
	}
	for _, tile := range [][2]int{{1, 2}, {2, 1}, {2, 2}, {1, 3}, {3, 2}} {
		for _, prec := range []Precision{FP64, Mixed} {
			name := fmt.Sprintf("%dx%d/%s", tile[0], tile[1], prec)
			wire, state := exchangeDigests(t, in, tile[0], tile[1], prec)
			if w := want[name]; wire != w[0] || state != w[1] {
				t.Errorf("%q: {%q, %q},", name, wire, state)
			}
		}
	}
}
