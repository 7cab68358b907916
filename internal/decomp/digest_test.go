package decomp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/device"
	"repro/internal/half"
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
// UnpackG/UnpackD and its Σ≷/Π≷ output tensors after UnpackSigma/UnpackPi
// (a phonon tensor's Data is the blocks that exist, in (point, atom,
// slot) order) — plus every rank's tile Stats. With warm set, each rank's plan first
// runs the whole exchange on warm, unhashed, and then on in.
func exchangeDigests(t *testing.T, in, warm *sse.Input, ta, te int, prec Precision) (wire, state string, stats []sse.Stats) {
	t.Helper()
	l := NewDaCeLayout(in.Dev, ta, te)
	src := NewOMENLayout(in.Dev.P, l.procs())
	atomSets := l.AtomSets()
	wires := make([]hash.Hash, l.procs())
	states := make([]hash.Hash, l.procs())
	stats = make([]sse.Stats, l.procs())
	err := comm.NewWorld(l.procs()).Run(func(c *comm.Comm) error {
		r := c.Rank()
		hw, hs := sha256.New(), sha256.New()
		wires[r], states[r] = hw, hs
		owned := func(in *sse.Input) *sse.Input {
			return localInput(in, func(ik, ie int) bool { return src.pairOwner(ik, ie) == r },
				func(iq, m int) bool { return src.phononOwner(iq, m) == r })
		}
		local := owned(in)
		var pl *DaCePlan
		if warm != nil {
			local = owned(warm)
			pl = NewDaCePlan(r, l, src, atomSets, local).WithPrecision(prec)
			pl.UnpackG(c.Alltoallv(pl.PackG()))
			pl.UnpackD(c.Alltoallv(pl.PackD()))
			pl.ComputeTile()
			pl.UnpackSigma(c.Alltoallv(pl.PackSigma()))
			pl.UnpackPi(c.Alltoallv(pl.PackPi()))
			// The plan reads the tensors it was built over: reload them.
			next := owned(in)
			dst := [][]complex128{local.GL.Data, local.GG.Data, local.DL.Data, local.DG.Data}
			for i, v := range [][]complex128{next.GL.Data, next.GG.Data, next.DL.Data, next.DG.Data} {
				copy(dst[i], v)
			}
			pl.ResetCounters()
		} else {
			pl = NewDaCePlan(r, l, src, atomSets, local).WithPrecision(prec)
		}
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
		stats[r] = out.Stats
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
	return fold(wires), fold(states), stats
}

// checkTileWindow asserts that, after exchanges #1 and #2 under FP64,
// rank r holds the global G≷ on (its atom set) × (its energy halo) and
// the global D≷ on its atom set for every (qz, ω), bit for bit.
func checkTileWindow(t *testing.T, l *DaCeLayout, r int, atomSets [][]int, local, global *sse.Input) {
	p := global.Dev.P
	myTa, myTe := l.tileOf(r)
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
				for s := 0; s <= len(global.Dev.Neigh[a]); s++ {
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
// and non-divisible energy splits. The state digests were re-taken once,
// at commit 123552f, when the state half moved from the padded D≷/Π≷
// storage to the blocks that exist, and have held since. The wire digests
// were bd65bb6's until the phonon tensors lost their padding: a D≷/Π≷
// segment now carries an atom's 1+nb_a slots, not MaxNb+1, so they were
// re-taken then, with every state digest unchanged.
func TestExchangeDigests(t *testing.T) {
	in := sse.RandomInput(testInput(t).Dev, 7)
	want := map[string][2]string{
		"1x2/fp64":  {"05ac8a3884b788dbd19e51c3bf5d58d59d81764db12796bebf50133a7cbfd65e", "6294d1f62bb5d1cee746ac89fe31052bf2da1c83539ebd2808f33f3634be69f1"},
		"1x2/mixed": {"aafb3a2a9e8c73ca96b85421dc1c47e450e123c494026eef386eabf3fd1c8927", "a0388e58c7358dced3d2224ec743c38699c56cfa6c658887a31526db1edab688"},
		"2x1/fp64":  {"26017e33c7e17b67e2012d454fa1577549a4a7b6d3fcb7f014494f1e511b752f", "83abaa6bdd2be752fc7f873e7a20f8bbfbcfcc80f3288732a69194fa9ec7e7f7"},
		"2x1/mixed": {"93f71f49a6b6a76568bff6c3e13f84e40ce2da481625260581feaec5938f37a1", "2d59f7aa9d4b604b3de57ea270cf1c8001a8a88ce7f9c1968f1f623e55d73776"},
		"2x2/fp64":  {"e4e44842cae404b787f3a1dac17323af87be2a366b5443eb1cedeee3a7fc408e", "7611580fa47260fb470e2b207be1d2dc953b608fd6f15475a9b1fd0076c94e0e"},
		"2x2/mixed": {"058f935c1e8a429081262fa36acfd77c709a2d72d7f6969296ce9b56cbedc322", "1105552aac76f26b66988555a8d36e7c8d94db1fc2be60f470ec9924b02bdde7"},
		"1x3/fp64":  {"84e32ad3468cc5b5042e796f62b9e964779c342c8aeb5757ca4843086cf81943", "8a29faf3eb88ae9e707c7e41af8b3947bef04c72e4c614a37219e612e97bbda3"},
		"1x3/mixed": {"79d541fdb9ad4ee4753bbb98575475b1da6d2e06fe2f120b68eaefeee4d67212", "948528e94fa8d547940d20d72b4d1f38a33dd6e314aa221ee5c18659a85004a3"},
		"3x2/fp64":  {"72a41516ce60d2aaf176a3b4ed9e82fe22f5b7c56e5fc564420cd0d8437e97cd", "ff4d97286e43a68b9d4302359c93fbe353cac3722aecaf4b7aa80bd8787d3520"},
		"3x2/mixed": {"617d7f3728c47ff5ce7a2d3881e002b3775fd78d02f8b5a035f2efcd800b5b82", "e413066c64bc99cb74e0926deae6a743130560884ea7739cc6b4c03de9d2a504"},
	}
	for _, tile := range [][2]int{{1, 2}, {2, 1}, {2, 2}, {1, 3}, {3, 2}} {
		for _, prec := range []Precision{FP64, Mixed} {
			name := fmt.Sprintf("%dx%d/%s", tile[0], tile[1], prec)
			wire, state, _ := exchangeDigests(t, in, nil, tile[0], tile[1], prec)
			if w := want[name]; wire != w[0] || state != w[1] {
				t.Errorf("%q: {%q, %q},", name, wire, state)
			}
		}
	}
}

// TestReusedPlanLeavesNoStaleData runs one plan per rank at P=2 through
// the whole exchange twice — on one input, then on another — and
// requires the second round's wire, state and tile Stats to equal a fresh
// plan's on the second input bit for bit, fp64 and mixed: the tile output
// is zeroed before the Π≷ partials accumulate into it and UnpackPi adds
// arrivals to it, and the pack, encode and decode buffers carry nothing
// from round to round.
func TestReusedPlanLeavesNoStaleData(t *testing.T) {
	dev := testInput(t).Dev
	first, second := sse.RandomInput(dev, 1), sse.RandomInput(dev, 2)
	for _, prec := range []Precision{FP64, Mixed} {
		wire, state, stats := exchangeDigests(t, second, nil, 1, 2, prec)
		rWire, rState, rStats := exchangeDigests(t, second, first, 1, 2, prec)
		if rWire != wire || rState != state || !reflect.DeepEqual(rStats, stats) {
			t.Errorf("%s: the reused plan's second round differs from a fresh plan's:\n wire %s vs %s\nstate %s vs %s\nstats %+v vs %+v",
				prec, rWire, wire, rState, state, rStats, stats)
		}
	}
}

// stageDigest runs the four-stage exchange of one (Ta, TE, precision)
// configuration twice on one plan per rank — through Post* → Wait →
// Release when post is set, so the second round writes into the rows the
// first released, else through Pack* → Alltoallv — and returns the
// digest of every rank's state after the second round (its G≷/D≷ inputs
// after UnpackG/UnpackD and its Σ≷/Π≷ outputs after UnpackSigma/UnpackPi,
// folded in rank order), each rank's OffRankBytes and FallbackBlocks of
// that round, and the world's Alltoallv bytes over both rounds.
func stageDigest(t *testing.T, in *sse.Input, ta, te int, prec Precision, post bool) (state string, counters [][2]int64, bytes int64) {
	t.Helper()
	l := NewDaCeLayout(in.Dev, ta, te)
	src := NewOMENLayout(in.Dev.P, l.procs())
	atomSets := l.AtomSets()
	states := make([][]byte, l.procs())
	counters = make([][2]int64, l.procs())
	w := comm.NewWorld(l.procs())
	err := w.Run(func(c *comm.Comm) error {
		r := c.Rank()
		local := localInput(in, func(ik, ie int) bool { return src.pairOwner(ik, ie) == r },
			func(iq, m int) bool { return src.phononOwner(iq, m) == r })
		pl := NewDaCePlan(r, l, src, atomSets, local).WithPrecision(prec)
		stage := func(postF func(*comm.Comm) *comm.MatRequest, packF func() [][]complex128, unpackF func([][]complex128)) {
			if !post {
				unpackF(c.Alltoallv(packF()))
				return
			}
			req := postF(c)
			unpackF(req.Wait())
			req.Release()
		}
		h := sha256.New()
		for round := 0; round < 2; round++ {
			pl.ResetCounters()
			stage(pl.PostG, pl.PackG, pl.UnpackG)
			stage(pl.PostD, pl.PackD, pl.UnpackD)
			pl.ComputeTile()
			stage(pl.PostSigma, pl.PackSigma, pl.UnpackSigma)
			stage(pl.PostPi, pl.PackPi, pl.UnpackPi)
		}
		out := pl.Output()
		for _, v := range [][]complex128{local.GL.Data, local.GG.Data, local.DL.Data, local.DG.Data,
			out.SigL.Data, out.SigG.Data, out.PiL.Data, out.PiG.Data} {
			hashVec(h, v)
		}
		states[r] = h.Sum(nil)
		counters[r] = [2]int64{pl.OffRankBytes(), pl.FallbackBlocks()}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	all := sha256.New()
	for _, s := range states {
		all.Write(s)
	}
	return hex.EncodeToString(all.Sum(nil)), counters, w.Stats().CollectiveBytes["Alltoallv"]
}

// TestPostMatchesPackExchange: posting the segment writer straight into
// comm's recycled rows and packing into the plan's own rows for the
// blocking Alltoallv are one exchange — the same state bit for bit, the
// same per-rank off-rank bytes and fallback blocks, and the same bytes on
// the wire — at P ∈ {2, 4}, fp64 and mixed.
func TestPostMatchesPackExchange(t *testing.T) {
	in := sse.RandomInput(testInput(t).Dev, 7)
	for _, tile := range [][2]int{{1, 2}, {2, 1}, {2, 2}} {
		for _, prec := range []Precision{FP64, Mixed} {
			name := fmt.Sprintf("%dx%d/%s", tile[0], tile[1], prec)
			packState, packC, packB := stageDigest(t, in, tile[0], tile[1], prec, false)
			postState, postC, postB := stageDigest(t, in, tile[0], tile[1], prec, true)
			if postState != packState {
				t.Errorf("%s: Post* state %s, Pack* state %s", name, postState, packState)
			}
			if !reflect.DeepEqual(postC, packC) || postB != packB {
				t.Errorf("%s: Post* counters %v and %d bytes, Pack* %v and %d", name, postC, postB, packC, packB)
			}
		}
	}
}

// TestMixedFallbackCountersMatchWholeRowEncode: with a NaN in one G≷
// segment and an Inf in one D≷ segment, the segment-at-a-time writer
// reports the OffRankBytes and FallbackBlocks that encoding the same fp64
// rows reports: the whole G≷ row at once, whose segments share one
// length, and the D≷ row one atom's segment at a time, since an atom's
// slot count sets its segment's length.
func TestMixedFallbackCountersMatchWholeRowEncode(t *testing.T) {
	in := sse.RandomInput(testInput(t).Dev, 7)
	l := NewDaCeLayout(in.Dev, 2, 2)
	src := NewOMENLayout(in.Dev.P, l.procs())
	atomSets := l.AtomSets()
	err := comm.NewWorld(l.procs()).Run(func(c *comm.Comm) error {
		r := c.Rank()
		local := localInput(in, func(ik, ie int) bool { return src.pairOwner(ik, ie) == r },
			func(iq, m int) bool { return src.phononOwner(iq, m) == r })
		pl := NewDaCePlan(r, l, src, atomSets, local).WithPrecision(Mixed)
		peer := (r + 1) % l.procs()
		if spans := pl.xs[0].send[peer]; len(spans) > 0 {
			local.GL.Data[spans[0].off] = complex(math.NaN(), 0)
		}
		if spans := pl.xs[1].send[peer]; len(spans) > 0 {
			local.DG.Data[spans[len(spans)-1].off+1] = complex(0, math.Inf(-1))
		}
		// What encoding the same fp64 rows reports.
		var wantBytes, wantFallbacks int64
		for i, x := range pl.xs[:2] {
			for dst, spans := range x.send {
				if dst == r || len(spans) == 0 {
					continue
				}
				var row []complex128
				for _, s := range spans {
					seg := append(append([]complex128(nil), x.lesser[s.off:s.off+s.n]...), x.greater[s.off:s.off+s.n]...)
					if i == 1 {
						wire := half.WireEncode(seg, len(seg))
						wantBytes += int64(len(wire)) * 16
						wantFallbacks += int64(half.WireFallbacks(wire, len(seg)))
					}
					row = append(row, seg...)
				}
				if i == 0 {
					n := 2 * in.GL.BlockLen()
					wire := half.WireEncode(row, n)
					wantBytes += int64(len(wire)) * 16
					wantFallbacks += int64(half.WireFallbacks(wire, n))
				}
			}
		}
		for _, post := range []func(*comm.Comm) *comm.MatRequest{pl.PostG, pl.PostD} {
			req := post(c)
			req.Wait()
			req.Release()
		}
		if wantFallbacks < 2 {
			return fmt.Errorf("rank %d: the whole-row encode found %d fallback segments, want at least the 2 planted", r, wantFallbacks)
		}
		if pl.OffRankBytes() != wantBytes || pl.FallbackBlocks() != wantFallbacks {
			return fmt.Errorf("rank %d: OffRankBytes %d, FallbackBlocks %d; the whole-row encode reports %d, %d",
				r, pl.OffRankBytes(), pl.FallbackBlocks(), wantBytes, wantFallbacks)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhononExchangeBytesAreExact: under FP64 the D≷ and Π≷ exchanges
// ship exactly the blocks that exist — OffRankBytes of each equals
// 2·16·N3D²·Σ(1+nb_a) over the (point, atom) segments it sends (D≷: the
// sender's points × the receiver's atom set; Π≷: the sender's owned atoms
// × the receiver's points) — on every layout of TestExchangeDigests.
func TestPhononExchangeBytesAreExact(t *testing.T) {
	in := sse.RandomInput(testInput(t).Dev, 7)
	dev := in.Dev
	p := dev.P
	slotsOf := func(atoms []int, points int) int64 {
		var n int64
		for _, a := range atoms {
			n += int64(1+len(dev.Neigh[a])) * int64(points)
		}
		return n
	}
	for _, tile := range [][2]int{{1, 2}, {2, 1}, {2, 2}, {1, 3}, {3, 2}} {
		l := NewDaCeLayout(dev, tile[0], tile[1])
		src := NewOMENLayout(p, l.procs())
		atomSets := l.AtomSets()
		err := comm.NewWorld(l.procs()).Run(func(c *comm.Comm) error {
			r := c.Rank()
			local := localInput(in, func(ik, ie int) bool { return src.pairOwner(ik, ie) == r },
				func(iq, m int) bool { return src.phononOwner(iq, m) == r })
			pl := NewDaCePlan(r, l, src, atomSets, local)
			var wantD, wantPi int64
			myTa, _ := l.tileOf(r)
			for d := 0; d < l.procs(); d++ {
				if d == r {
					continue
				}
				ta, _ := l.tileOf(d)
				wantD += slotsOf(atomSets[ta], len(src.OwnedPhonon(r)))
				wantPi += slotsOf(l.ownedAtoms(myTa), len(src.OwnedPhonon(d)))
			}
			bytes := int64(2 * 16 * device.N3D * device.N3D)
			wantD, wantPi = wantD*bytes, wantPi*bytes

			pl.UnpackG(c.Alltoallv(pl.PackG()))
			pl.ResetCounters()
			pl.UnpackD(c.Alltoallv(pl.PackD()))
			gotD := pl.OffRankBytes()
			pl.ComputeTile()
			pl.UnpackSigma(c.Alltoallv(pl.PackSigma()))
			pl.ResetCounters()
			pl.UnpackPi(c.Alltoallv(pl.PackPi()))
			if gotPi := pl.OffRankBytes(); gotD != wantD || gotPi != wantPi {
				return fmt.Errorf("%dx%d rank %d: D≷ %d B, Π≷ %d B; the existing blocks are %d B and %d B",
					tile[0], tile[1], r, gotD, gotPi, wantD, wantPi)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}
