package sse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/tensor"
)

// synthInput builds a small device with physically-shaped Green's function
// tensors: anti-Hermitian per-atom blocks with magnitudes around scale.
func synthInput(t testing.TB, scale float64) *Input {
	t.Helper()
	p := device.TestParams(12, 3, 2)
	p.NE = 10
	p.Nomega = 3
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	gl := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
	gg := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
	fillAntiHermitian(rng, gl.Data, p.Norb, scale)
	fillAntiHermitian(rng, gg.Data, p.Norb, scale)
	nbp1 := dev.MaxNb() + 1
	dl := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
	dg := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
	fillAntiHermitian(rng, dl.Data, device.N3D, scale)
	fillAntiHermitian(rng, dg.Data, device.N3D, scale)
	return &Input{Dev: dev, GL: gl, GG: gg, DL: dl, DG: dg}
}

// fillAntiHermitian fills consecutive n×n blocks with anti-Hermitian values
// (Mᴴ = −M), the structure of physical G≷ and D≷ blocks.
func fillAntiHermitian(rng *rand.Rand, data []complex128, n int, scale float64) {
	bl := n * n
	for o := 0; o+bl <= len(data); o += bl {
		for i := 0; i < n; i++ {
			data[o+i*n+i] = complex(0, scale*rng.NormFloat64())
			for j := i + 1; j < n; j++ {
				v := complex(scale*rng.NormFloat64(), scale*rng.NormFloat64())
				data[o+i*n+j] = v
				data[o+j*n+i] = -complex(real(v), -imag(v))
			}
		}
	}
}

func maxTensorDiff(a, b []complex128) (abs, rel float64) {
	var mx, den float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
		if m := cmplx.Abs(a[i]); m > den {
			den = m
		}
	}
	if den == 0 {
		return mx, 0
	}
	return mx, mx / den
}

func TestDaCeMatchesOMEN(t *testing.T) {
	in := synthInput(t, 1)
	omen := OMEN{}.Compute(in)
	dace := DaCe{}.Compute(in)

	if _, rel := maxTensorDiff(omen.SigL.Data, dace.SigL.Data); rel > 1e-10 {
		t.Fatalf("SigL mismatch: rel %g", rel)
	}
	if _, rel := maxTensorDiff(omen.SigG.Data, dace.SigG.Data); rel > 1e-10 {
		t.Fatalf("SigG mismatch: rel %g", rel)
	}
	if _, rel := maxTensorDiff(omen.PiL.Data, dace.PiL.Data); rel > 1e-10 {
		t.Fatalf("PiL mismatch: rel %g", rel)
	}
	if _, rel := maxTensorDiff(omen.PiG.Data, dace.PiG.Data); rel > 1e-10 {
		t.Fatalf("PiG mismatch: rel %g", rel)
	}
}

func TestDaCeUsesFewerMultiplications(t *testing.T) {
	in := synthInput(t, 1)
	omen := OMEN{}.Compute(in)
	dace := DaCe{}.Compute(in)
	if omen.Stats.MatMuls <= dace.Stats.MatMuls {
		t.Fatalf("expected OMEN (%d matmuls) > DaCe (%d matmuls)",
			omen.Stats.MatMuls, dace.Stats.MatMuls)
	}
	ratio := float64(omen.Stats.MatMuls) / float64(dace.Stats.MatMuls)
	// The algebraic regrouping should save at least the paper's ~2×.
	if ratio < 2 {
		t.Fatalf("multiplication reduction only %.2fx", ratio)
	}
	t.Logf("matmul reduction: %.1fx (OMEN %d, DaCe %d)", ratio, omen.Stats.MatMuls, dace.Stats.MatMuls)
}

func TestSSEOutputNonZero(t *testing.T) {
	in := synthInput(t, 1)
	out := DaCe{}.Compute(in)
	var nz int
	for _, v := range out.SigL.Data {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("SigL is identically zero")
	}
	nz = 0
	for _, v := range out.PiL.Data {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("PiL is identically zero")
	}
}

func TestSSEDeterministic(t *testing.T) {
	in := synthInput(t, 1)
	a := DaCe{}.Compute(in)
	b := DaCe{}.Compute(in)
	if abs, _ := maxTensorDiff(a.SigL.Data, b.SigL.Data); abs != 0 {
		t.Fatal("DaCe kernel is not deterministic")
	}
}

func TestSequentialMatchesParallel(t *testing.T) {
	in := synthInput(t, 1)
	// The atom pool is min(GOMAXPROCS, atoms), read at call time.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	par := DaCe{}.Compute(in)
	runtime.GOMAXPROCS(1)
	seq := DaCe{}.Compute(in)
	if abs, _ := maxTensorDiff(par.SigL.Data, seq.SigL.Data); abs != 0 {
		t.Fatal("parallel and sequential SSE differ")
	}
	if abs, _ := maxTensorDiff(par.PiG.Data, seq.PiG.Data); abs != 0 {
		t.Fatal("parallel and sequential Π differ")
	}
}

func TestMixedNormalizedAccuracy(t *testing.T) {
	// Physical Green's functions have small magnitudes; fp16 only works
	// with the normalization factors, as Fig. 7 demonstrates.
	in := synthInput(t, 4e-6)
	ref := DaCe{}.Compute(in)
	mixed := Mixed{Normalize: true}.Compute(in)

	relErr := func(a, b []complex128) float64 {
		var num, den float64
		for i := range a {
			num += cmplx.Abs(a[i] - b[i])
			den += cmplx.Abs(b[i])
		}
		return num / den
	}
	rel := relErr(mixed.SigL.Data, ref.SigL.Data)
	if rel > 0.01 {
		t.Fatalf("normalized mixed precision too inaccurate: rel %g", rel)
	}

	raw := Mixed{Normalize: false}.Compute(in)
	relRaw := relErr(raw.SigL.Data, ref.SigL.Data)
	if relRaw < 3*rel {
		t.Fatalf("expected unnormalized to be much worse: %g vs %g", relRaw, rel)
	}
	t.Logf("mixed-precision rel error: normalized %.2e, unnormalized %.2e", rel, relRaw)
}

func TestMixedNamesDistinct(t *testing.T) {
	if (Mixed{Normalize: true}).Name() == (Mixed{Normalize: false}).Name() {
		t.Fatal("kernel names must distinguish normalization")
	}
	if (OMEN{}).Name() == (DaCe{}).Name() {
		t.Fatal("kernel names must be distinct")
	}
}

func TestEnergyEdgeClamping(t *testing.T) {
	// Terms with E±ω off the grid are dropped; the self-energy at the grid
	// edges must still be finite and the kernels must agree there too.
	in := synthInput(t, 1)
	p := in.Dev.P
	omen := OMEN{}.Compute(in)
	dace := DaCe{}.Compute(in)
	for _, ie := range []int{0, p.NE - 1} {
		for a := 0; a < p.Na; a++ {
			bo := omen.SigL.Block(0, ie, a)
			bd := dace.SigL.Block(0, ie, a)
			for e := range bo {
				if cmplx.IsNaN(bo[e]) || cmplx.IsInf(bo[e]) {
					t.Fatal("edge block contains NaN/Inf")
				}
				if cmplx.Abs(bo[e]-bd[e]) > 1e-10*(1+cmplx.Abs(bo[e])) {
					t.Fatalf("edge mismatch at ie=%d", ie)
				}
			}
		}
	}
}

func TestScalingLinearity(t *testing.T) {
	// Σ is bilinear in (G, D): scaling G≷ by α and D≷ by β scales Σ by
	// α·β and Π by α². A cheap global correctness property.
	in := synthInput(t, 1)
	base := DaCe{}.Compute(in)

	alpha, beta := 2.0, 3.0
	in2 := &Input{Dev: in.Dev, GL: in.GL.Clone(), GG: in.GG.Clone(), DL: in.DL.Clone(), DG: in.DG.Clone()}
	for i := range in2.GL.Data {
		in2.GL.Data[i] *= complex(alpha, 0)
		in2.GG.Data[i] *= complex(alpha, 0)
	}
	for i := range in2.DL.Data {
		in2.DL.Data[i] *= complex(beta, 0)
		in2.DG.Data[i] *= complex(beta, 0)
	}
	scaled := DaCe{}.Compute(in2)
	for i := range base.SigL.Data {
		want := base.SigL.Data[i] * complex(alpha*beta, 0)
		if cmplx.Abs(scaled.SigL.Data[i]-want) > 1e-9*(1+cmplx.Abs(want)) {
			t.Fatal("Σ does not scale bilinearly")
		}
	}
	for i := range base.PiL.Data {
		want := base.PiL.Data[i] * complex(alpha*alpha, 0)
		if cmplx.Abs(scaled.PiL.Data[i]-want) > 1e-9*(1+cmplx.Abs(want)) {
			t.Fatal("Π does not scale quadratically in G")
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	in := synthInput(t, 1)
	for _, k := range []Kernel{OMEN{}, DaCe{}, Mixed{Normalize: true}} {
		out := k.Compute(in)
		if out.Stats.MatMuls <= 0 || out.Stats.Flops <= 0 || out.Stats.BytesMoved <= 0 {
			t.Fatalf("%s: stats not populated: %+v", k.Name(), out.Stats)
		}
		if out.Stats.Flops != out.Stats.MatMuls*8*int64(in.GL.Norb*in.GL.Norb*in.GL.Norb) {
			// Flops must follow the 8n³-per-multiplication accounting.
			t.Fatalf("%s: flop accounting inconsistent", k.Name())
		}
	}
}

func TestOperationalIntensityIsMemoryBound(t *testing.T) {
	// The roofline argument (Fig. 10): SSE's useful flops per byte moved
	// must be low (memory-bound), far below the RGF's O(n) intensity.
	in := synthInput(t, 1)
	out := DaCe{}.Compute(in)
	oi := float64(out.Stats.Flops+out.Stats.ScalarOps) / float64(out.Stats.BytesMoved)
	if math.IsNaN(oi) || oi <= 0 {
		t.Fatal("invalid operational intensity")
	}
	t.Logf("DaCe SSE operational intensity: %.2f flop/byte", oi)
}

func TestSavingsGrowWithAccuracy(t *testing.T) {
	// §5.3: the multiplication reduction of the transformed kernel comes
	// from reusing the ∇H·G transients across the (qz, ω) stencil, so the
	// matmul ratio OMEN/DaCe must grow with the number of phonon
	// frequencies — the same trend as the paper's 2NqzNω/(NqzNω+1) model.
	ratioAt := func(nw int) float64 {
		p := device.TestParams(12, 3, 2)
		p.NE = 10
		p.Nomega = nw
		dev, err := device.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		gl := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
		gg := tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb)
		nbp1 := dev.MaxNb() + 1
		dl := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
		dg := tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D)
		fillAntiHermitian(rng, gl.Data, p.Norb, 1)
		fillAntiHermitian(rng, gg.Data, p.Norb, 1)
		fillAntiHermitian(rng, dl.Data, device.N3D, 1)
		fillAntiHermitian(rng, dg.Data, device.N3D, 1)
		in := &Input{Dev: dev, GL: gl, GG: gg, DL: dl, DG: dg}
		o := OMEN{}.Compute(in)
		d := DaCe{}.Compute(in)
		return float64(o.Stats.MatMuls) / float64(d.Stats.MatMuls)
	}
	r2, r6 := ratioAt(2), ratioAt(6)
	t.Logf("matmul reduction: %.1fx at Nω=2, %.1fx at Nω=6", r2, r6)
	if r6 <= r2 {
		t.Fatalf("savings should grow with Nω: %.1f vs %.1f", r2, r6)
	}
}

func TestRestrictedDaCePartitionsSum(t *testing.T) {
	// The tile restriction must partition the work exactly: summing the
	// outputs of disjoint (atoms × energies) tiles reproduces the full
	// kernel output — the invariant the distributed decomposition needs.
	in := synthInput(t, 1)
	full := DaCe{}.Compute(in)
	na, ne := in.GL.Na, in.GL.NE
	sumL := make([]complex128, len(full.SigL.Data))
	sumPi := make([]complex128, len(full.PiL.Data))
	for _, tile := range [][4]int{
		{0, na / 2, 0, ne / 2}, {0, na / 2, ne / 2, ne},
		{na / 2, na, 0, ne / 2}, {na / 2, na, ne / 2, ne},
	} {
		atoms := make([]int, 0)
		for a := tile[0]; a < tile[1]; a++ {
			atoms = append(atoms, a)
		}
		out := DaCe{Atoms: atoms, ELo: tile[2], EHi: tile[3]}.Compute(in)
		for i, v := range out.SigL.Data {
			sumL[i] += v
		}
		for i, v := range out.PiL.Data {
			sumPi[i] += v
		}
	}
	if abs, _ := maxTensorDiff(sumL, full.SigL.Data); abs > 1e-10 {
		t.Fatalf("tile sum does not reproduce Σ<: %g", abs)
	}
	if abs, _ := maxTensorDiff(sumPi, full.PiL.Data); abs > 1e-10 {
		t.Fatalf("tile sum does not reproduce Π<: %g", abs)
	}
}

func TestMaskedOMENPartitionsSum(t *testing.T) {
	// Same invariant for the pair mask of the momentum×energy scheme.
	in := synthInput(t, 1)
	full := OMEN{}.Compute(in)
	sum := make([]complex128, len(full.SigG.Data))
	sumPi := make([]complex128, len(full.PiG.Data))
	for part := 0; part < 3; part++ {
		p := part
		out := OMEN{Mask: func(ik, ie int) bool { return (ik*in.GL.NE+ie)%3 == p }}.Compute(in)
		for i, v := range out.SigG.Data {
			sum[i] += v
		}
		for i, v := range out.PiG.Data {
			sumPi[i] += v
		}
	}
	if abs, _ := maxTensorDiff(sum, full.SigG.Data); abs > 1e-10 {
		t.Fatalf("mask partition does not reproduce Σ>: %g", abs)
	}
	if abs, _ := maxTensorDiff(sumPi, full.PiG.Data); abs > 1e-10 {
		t.Fatalf("mask partition does not reproduce Π>: %g", abs)
	}
}
