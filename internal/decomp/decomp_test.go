package decomp

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/device"
	"repro/internal/sse"
	"repro/internal/tensor"
)

// testInput builds a small physical-shaped SSE input (same construction as
// the sse package tests).
func testInput(t testing.TB) *sse.Input {
	t.Helper()
	p := device.TestParams(12, 3, 2)
	p.NE = 10
	p.Nomega = 3
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	fill := func(data []complex128) {
		for i := range data {
			data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	gl := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
	gg := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
	nbp1 := dev.MaxNb() + 1
	dl := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
	dg := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
	fill(gl.Data)
	fill(gg.Data)
	fill(dl.Data)
	fill(dg.Data)
	return &sse.Input{Dev: dev, GL: gl, GG: gg, DL: dl, DG: dg}
}

func relDiff(a, b []complex128) float64 {
	var mx, den float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
		if m := cmplx.Abs(b[i]); m > den {
			den = m
		}
	}
	if den == 0 {
		return mx
	}
	return mx / den
}

func checkAgainstSequential(t *testing.T, got *sse.Output, in *sse.Input, label string) {
	t.Helper()
	want := (sse.DaCe{}).Compute(in)
	for _, cmp := range []struct {
		name string
		a, b []complex128
	}{
		{"SigL", got.SigL.Data, want.SigL.Data},
		{"SigG", got.SigG.Data, want.SigG.Data},
		{"PiL", got.PiL.Data, want.PiL.Data},
		{"PiG", got.PiG.Data, want.PiG.Data},
	} {
		if rel := relDiff(cmp.a, cmp.b); rel > 1e-9 {
			t.Fatalf("%s: %s differs from sequential by rel %g", label, cmp.name, rel)
		}
	}
}

func TestOMENLayoutPartition(t *testing.T) {
	p := device.TestParams(12, 3, 2)
	p.NE = 10
	l := NewOMENLayout(p, 4)
	seen := make(map[[2]int]int)
	for r := 0; r < 4; r++ {
		for _, pr := range l.OwnedPairs(r) {
			seen[pr]++
			if l.PairOwner(pr[0], pr[1]) != r {
				t.Fatal("OwnedPairs inconsistent with PairOwner")
			}
		}
	}
	if len(seen) != p.Nkz*p.NE {
		t.Fatalf("pairs covered: %d of %d", len(seen), p.Nkz*p.NE)
	}
	for pr, n := range seen {
		if n != 1 {
			t.Fatalf("pair %v owned %d times", pr, n)
		}
	}
}

func TestDaCeLayoutTiles(t *testing.T) {
	in := testInput(t)
	l := NewDaCeLayout(in.Dev, 3, 2)
	if l.P() != 6 {
		t.Fatal("P wrong")
	}
	covered := make([]int, in.Dev.P.Na)
	for ta := 0; ta < 3; ta++ {
		for _, a := range l.OwnedAtoms(ta) {
			covered[a]++
		}
		// The atom set must contain every owned atom plus all neighbours.
		set := make(map[int]bool)
		for _, a := range l.AtomSet(ta) {
			set[a] = true
		}
		for _, a := range l.OwnedAtoms(ta) {
			if !set[a] {
				t.Fatal("owned atom missing from atom set")
			}
			for _, b := range in.Dev.Neigh[a] {
				if !set[b] {
					t.Fatalf("neighbour %d of %d missing from halo", b, a)
				}
			}
		}
	}
	for a, n := range covered {
		if n != 1 {
			t.Fatalf("atom %d owned %d times", a, n)
		}
	}
	// Energy ranges partition [0, NE).
	covE := make([]int, in.Dev.P.NE)
	for te := 0; te < 2; te++ {
		lo, hi := l.EnergyRange(te)
		for e := lo; e < hi; e++ {
			covE[e]++
		}
		hLo, hHi := l.EnergyHalo(te)
		if hLo > lo || hHi < hi {
			t.Fatal("halo must contain the owned range")
		}
	}
	for e, n := range covE {
		if n != 1 {
			t.Fatalf("energy %d owned %d times", e, n)
		}
	}
}

func TestDistributedOMENMatchesSequential(t *testing.T) {
	in := testInput(t)
	for _, ranks := range []int{1, 2, 4, 6} {
		w := comm.NewWorld(ranks)
		got, _, err := RunOMEN(w, in, ranks)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		checkAgainstSequential(t, got, in, "OMEN")
	}
}

func TestDistributedDaCeMatchesSequential(t *testing.T) {
	in := testInput(t)
	// NE = 10: {1, 3} and {2, 4} split the energies unevenly, and {1, 11}
	// has more energy tiles than energies — one rank owns none and takes
	// the empty-tile branch of ComputeTile.
	for _, tile := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}, {4, 1}, {1, 3}, {2, 4}, {1, 11}} {
		w := comm.NewWorld(tile[0] * tile[1])
		got, _, err := RunDaCe(w, in, tile[0], tile[1])
		if err != nil {
			t.Fatalf("tile %v: %v", tile, err)
		}
		checkAgainstSequential(t, got, in, "DaCe")
	}
}

func TestDaCeVolumeMuchLowerThanOMEN(t *testing.T) {
	// The §5.2 headline: on the same rank count, the communication-avoiding
	// decomposition moves far less data than the momentum×energy scheme.
	in := testInput(t)
	const ranks = 6
	_, so, err := RunOMEN(comm.NewWorld(ranks), in, ranks)
	if err != nil {
		t.Fatal(err)
	}
	_, sd, err := RunDaCe(comm.NewWorld(ranks), in, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sd.BytesSent >= so.BytesSent {
		t.Fatalf("DaCe (%d B) should move less than OMEN (%d B)", sd.BytesSent, so.BytesSent)
	}
	ratio := float64(so.BytesSent) / float64(sd.BytesSent)
	t.Logf("measured volume: OMEN %d B, DaCe %d B, reduction %.1fx", so.BytesSent, sd.BytesSent, ratio)
	if ratio < 1.5 {
		t.Fatalf("expected a substantial reduction even at toy scale, got %.2fx", ratio)
	}
}

func TestVolumeReductionGrowsWithAccuracy(t *testing.T) {
	// Table 4's signature: the OMEN/DaCe volume ratio grows with the
	// number of phonon frequencies (and with Nkz·Nqz), because the OMEN
	// scheme replicates G≷ once per (qz, ω) while the alltoall volume only
	// gains a fixed 2Nω energy halo.
	ratioAt := func(nw int) float64 {
		p := device.TestParams(12, 3, 2)
		p.NE = 12
		p.Nomega = nw
		dev := device.MustBuild(p)
		rng := rand.New(rand.NewSource(5))
		gl := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
		gg := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
		nbp1 := dev.MaxNb() + 1
		dl := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
		dg := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
		for _, buf := range [][]complex128{gl.Data, gg.Data, dl.Data, dg.Data} {
			for i := range buf {
				buf[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		in := &sse.Input{Dev: dev, GL: gl, GG: gg, DL: dl, DG: dg}
		_, so, err := RunOMEN(comm.NewWorld(6), in, 6)
		if err != nil {
			t.Fatal(err)
		}
		_, sd, err := RunDaCe(comm.NewWorld(6), in, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		return float64(so.BytesSent) / float64(sd.BytesSent)
	}
	r2, r5 := ratioAt(2), ratioAt(5)
	t.Logf("volume reduction: %.2fx at Nω=2, %.2fx at Nω=5", r2, r5)
	if r5 <= r2 {
		t.Fatalf("reduction should grow with Nω: %.2f vs %.2f", r2, r5)
	}
}

func TestDaCeUsesConstantCollectiveCount(t *testing.T) {
	in := testInput(t)
	_, sd, err := RunDaCe(comm.NewWorld(6), in, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sd.Collectives["Alltoallv"]; got != 4 {
		t.Fatalf("DaCe must use exactly 4 Alltoallv, got %d", got)
	}
	if sd.Sends != 0 {
		t.Fatalf("DaCe should need no point-to-point traffic, got %d sends", sd.Sends)
	}
}

func TestOMENInvocationCountsScaleWithPhononPoints(t *testing.T) {
	in := testInput(t)
	p := in.Dev.P
	_, so, err := RunOMEN(comm.NewWorld(4), in, 4)
	if err != nil {
		t.Fatal(err)
	}
	nRounds := int64(p.Nqz() * p.Nomega)
	if so.Collectives["Bcast"] != nRounds {
		t.Fatalf("OMEN broadcasts %d, want one per (qz,ω) round %d", so.Collectives["Bcast"], nRounds)
	}
	if so.Sends == 0 {
		t.Fatal("OMEN scheme must generate point-to-point replication traffic")
	}
}

func TestOMENVolumeGrowsWithRanks(t *testing.T) {
	// The D broadcast and Π reduction volumes grow linearly with the rank
	// count — the strong-scaling penalty of Table 5.
	in := testInput(t)
	_, s2, err := RunOMEN(comm.NewWorld(2), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, s6, err := RunOMEN(comm.NewWorld(6), in, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s6.BytesSent <= s2.BytesSent {
		t.Fatalf("OMEN volume should grow with ranks: %d (P=2) vs %d (P=6)", s2.BytesSent, s6.BytesSent)
	}
}

func TestUnevenRankCounts(t *testing.T) {
	// Rank counts that do not divide the pair or atom counts still
	// partition correctly (block distribution with remainders).
	in := testInput(t)
	for _, ranks := range []int{3, 5, 7} {
		got, _, err := RunOMEN(comm.NewWorld(ranks), in, ranks)
		if err != nil {
			t.Fatalf("OMEN ranks=%d: %v", ranks, err)
		}
		checkAgainstSequential(t, got, in, "OMEN-uneven")
	}
	for _, tile := range [][2]int{{5, 1}, {1, 5}, {3, 1}} {
		got, _, err := RunDaCe(comm.NewWorld(tile[0]*tile[1]), in, tile[0], tile[1])
		if err != nil {
			t.Fatalf("DaCe tile %v: %v", tile, err)
		}
		checkAgainstSequential(t, got, in, "DaCe-uneven")
	}
}

func TestMoreRanksThanPhononPoints(t *testing.T) {
	// With more ranks than phonon points, some ranks own none — the
	// broadcast/reduce rounds must still complete and verify.
	in := testInput(t) // Nqz*Nω = 3*3 = 9 points
	got, _, err := RunOMEN(comm.NewWorld(12), in, 12)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstSequential(t, got, in, "OMEN-sparse-ownership")
}

// TestMixedExchangeMatchesSequential: the plan-driven exchange under
// Mixed precision — binary16 wire payloads on all four Alltoallv stages
// plus the mixed tile kernel — must reproduce the sequential fp64 kernel
// within the quantization tolerance, while moving measurably fewer bytes
// than the fp64 exchange at the identical decomposition.
func TestMixedExchangeMatchesSequential(t *testing.T) {
	in := testInput(t)
	want := (sse.DaCe{}).Compute(in)

	runPrec := func(prec Precision) (*sse.Output, comm.Stats) {
		p := in.Dev.P
		l := NewDaCeLayout(in.Dev, 3, 2)
		w := comm.NewWorld(l.P())
		src := NewOMENLayout(p, l.P())
		atomSets := l.AtomSets()
		final := newGathered(in)
		err := w.Run(func(c *comm.Comm) error {
			r := c.Rank()
			local := localInput(in, func(ik, ie int) bool { return src.PairOwner(ik, ie) == r },
				func(iq, m int) bool { return src.PhononOwner(iq, m) == r })
			pl := NewDaCePlan(r, l, src, atomSets, local).WithPrecision(prec)
			pl.UnpackG(c.Alltoallv(pl.PackG()))
			pl.UnpackD(c.Alltoallv(pl.PackD()))
			pl.ComputeTile()
			pl.UnpackSigma(c.Alltoallv(pl.PackSigma()))
			pl.UnpackPi(c.Alltoallv(pl.PackPi()))
			// The verification gather below adds traffic, but the assertions
			// filter on the "Alltoallv" counter, so no snapshot is needed.
			gatherOMEN(c, src, pl.Output(), final)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return final, w.Stats()
	}

	got, mixedStats := runPrec(Mixed)
	for _, cmp := range []struct {
		name string
		a, b []complex128
	}{
		{"SigL", got.SigL.Data, want.SigL.Data},
		{"SigG", got.SigG.Data, want.SigG.Data},
		{"PiL", got.PiL.Data, want.PiL.Data},
		{"PiG", got.PiG.Data, want.PiG.Data},
	} {
		if rel := relDiff(cmp.a, cmp.b); rel > 5e-3 {
			t.Errorf("mixed exchange: %s deviates from sequential fp64 by rel %g (tol 5e-3)", cmp.name, rel)
		}
	}

	_, fpStats := runPrec(FP64)
	fpB := fpStats.CollectiveBytes["Alltoallv"]
	mxB := mixedStats.CollectiveBytes["Alltoallv"]
	if fpB == 0 || mxB == 0 {
		t.Fatalf("missing exchange traffic: fp64 %d, mixed %d", fpB, mxB)
	}
	if ratio := float64(fpB) / float64(mxB); ratio < 1.8 {
		t.Errorf("mixed exchange reduction %.2fx < 1.8x", ratio)
	}
}

// TestPrecisionParse covers the CLI mapping.
func TestPrecisionParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
		ok   bool
	}{{"fp64", FP64, true}, {"mixed", Mixed, true}, {"fp16", FP64, false}, {"", FP64, false}} {
		got, err := ParsePrecision(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePrecision(%q) = %v, %v", tc.in, got, err)
		}
	}
	if FP64.String() != "fp64" || Mixed.String() != "mixed" {
		t.Error("Precision.String spellings changed")
	}
}
