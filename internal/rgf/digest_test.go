package rgf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bc"
	"repro/internal/blocktri"
	"repro/internal/device"
	"repro/internal/linalg"
)

// solutionDigest hashes the raw IEEE-754 bits of every block of s, in the
// order GR, GL, GG, GRUpper, GLUpper, GLLower, GGUpper, GGLower, so any
// change in product association, summation order or GEMM dispatch shows.
func solutionDigest(s *Solution) string {
	h := sha256.New()
	var b [16]byte
	for _, blocks := range [][]*linalg.Matrix{s.GR, s.GL, s.GG, s.GRUpper, s.GLUpper, s.GLLower, s.GGUpper, s.GGLower} {
		for _, m := range blocks {
			for _, v := range m.Data {
				binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
				binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// deviceProblem assembles one electron point of the synthetic device of
// device.TestParams(na, bnum, norb) as the NEGF point solve does: A =
// (E+iη)·I − H(kz) − Σᴿ with both contacts' decimated open boundaries and
// a scattering Σᴿ = (Σ> − Σ<)/2, and Σ≷ the Fermi-filled contact
// broadenings plus seeded anti-Hermitian per-atom scattering blocks. Its
// couplings carry the device's structural zeros, which randomProblem's
// dense ones never have.
func deviceProblem(t *testing.T, na, bnum, norb int) *Problem {
	t.Helper()
	p := device.TestParams(na, bnum, norb)
	dev, err := device.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	h := dev.Hamiltonian(1)
	nb, bs := p.Bnum, p.ElBlockSize()
	e := p.Energy(p.NE / 2)
	z := complex(e, p.Eta)
	shifted := func(dst, src *linalg.Matrix) *linalg.Matrix {
		linalg.Scale(dst, -1, src)
		for r := 0; r < dst.Rows; r++ {
			dst.Set(r, r, dst.At(r, r)+z)
		}
		return dst
	}
	a := blocktri.New(h.Sizes)
	for i := range a.Diag {
		shifted(a.Diag[i], h.Diag[i])
	}
	for i := range a.Upper {
		linalg.Scale(a.Upper[i], -1, h.Upper[i])
		linalg.Scale(a.Lower[i], -1, h.Lower[i])
	}
	lead := func(onsite, coupling *linalg.Matrix) *bc.Result {
		res, err := bc.SurfaceGFInto(linalg.NewWorkspace(), shifted(linalg.New(bs, bs), onsite), linalg.Scale(linalg.New(bs, bs), -1, coupling))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	left, right := lead(h.Diag[0], h.Lower[0]), lead(h.Diag[nb-1], h.Upper[nb-2])
	linalg.AXPY(a.Diag[0], -1, left.SigmaR)
	linalg.AXPY(a.Diag[nb-1], -1, right.SigmaR)

	sigL, sigG := make([]*linalg.Matrix, nb), make([]*linalg.Matrix, nb)
	for i := range sigL {
		sigL[i], sigG[i] = linalg.New(bs, bs), linalg.New(bs, bs)
	}
	fL, fR := device.FermiDirac(e, p.MuL(), p.TC), device.FermiDirac(e, p.MuR(), p.TC)
	linalg.AXPY(sigL[0], complex(0, fL), left.Gamma)
	linalg.AXPY(sigG[0], complex(0, -(1-fL)), left.Gamma)
	linalg.AXPY(sigL[nb-1], complex(0, fR), right.Gamma)
	linalg.AXPY(sigG[nb-1], complex(0, -(1-fR)), right.Gamma)

	rng := rand.New(rand.NewSource(int64(na*100 + norb)))
	antiHermitian := func(s complex128) *linalg.Matrix {
		m := linalg.New(norb, norb)
		for i := range m.Data {
			m.Data[i] = complex(0.02*rng.NormFloat64(), 0.02*rng.NormFloat64())
		}
		return linalg.Scale(m, s, linalg.Hermitize(m, m))
	}
	rows := p.AtomsPerSlab()
	for at := 0; at < p.Na; at++ {
		sl := dev.SlabOf[at]
		off := (at - sl*rows) * norb
		sL, sG := antiHermitian(1i), antiHermitian(-1i)
		for r := 0; r < norb; r++ {
			for c := 0; c < norb; c++ {
				v, g := sL.At(r, c), sG.At(r, c)
				sigL[sl].Set(off+r, off+c, sigL[sl].At(off+r, off+c)+v)
				sigG[sl].Set(off+r, off+c, sigG[sl].At(off+r, off+c)+g)
				a.Diag[sl].Set(off+r, off+c, a.Diag[sl].At(off+r, off+c)-(g-v)/2)
			}
		}
	}
	return &Problem{A: a, SigL: sigL, SigG: sigG}
}

// TestSolveDigests pins the RGF recursion bit for bit on the block sizes
// the benchmark devices use (12 and 64), on unequal slabs, whose coupling
// products are rectangular and straddle the GEMM kernels' size dispatch,
// and on two device-built electron points: iv_gf_bound's 64×64 slabs and
// 8×8 ones of a six-slab device. The random rows' digests were computed at
// commit 6754d63, before small products left the packed GEMM kernel, the
// device rows' at da8f241, before 64×64 products joined them: the row-panel
// kernel must keep every rounding. A device row's inputs go through
// math.Exp (the Fermi factors) and math.Hypot (the decimation's LU pivots),
// which are assembly on 386 and round differently there, so it carries one
// digest for amd64 and one for 386, and skips elsewhere.
func TestSolveDigests(t *testing.T) {
	onArch := func(amd64, i386 string) string {
		return map[string]string{"amd64": amd64, "386": i386}[runtime.GOARCH]
	}
	random := func(sizes ...int) func() *Problem {
		return func() *Problem {
			return randomProblem(rand.New(rand.NewSource(int64(len(sizes)*100+sizes[0]))), sizes)
		}
	}
	for _, c := range []struct {
		name    string
		problem func() *Problem
		want    string
	}{
		{"block12", random(12, 12, 12, 12), "db0b1c0f7ef3b5edc657fd46048ee1a0a8e47cab94799ab189359076d448e32e"},
		{"block64", random(64, 64, 64), "0e76395a975833b84c91e955e9c98fbca6b64ca406f7d8f9aba79e1177a7a8dc"},
		{"unequal", random(8, 18, 48, 12, 5), "f690269800279bf66c8b42bd8bcf780d5d0155c60f1788433367ac285528a628"},
		{"device64x4x4", func() *Problem { return deviceProblem(t, 64, 4, 4) }, onArch("2dafbb33e377d6e3fc40daa2586529d27b8f303052d33de77c7ef1e1a88aec5e", "90c306a4198ffd34a42300918ad4874678a8f7399aa3ab833e6412a3d181a976")},
		{"device24x6x2", func() *Problem { return deviceProblem(t, 24, 6, 2) }, onArch("690497d9be569363d821156d7b6472c4d8b313db70d6f4ff4206992e1a4ac778", "d789d641de1759585ef6a326e953d64e7647d534740571f28cf8c50df08fca97")},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.want == "" {
				t.Skipf("no %s digest", runtime.GOARCH)
			}
			p := c.problem()
			// Cold workspace, then the same workspace warm: reuse must not
			// leak state into the result.
			ws := linalg.NewWorkspace()
			var sol *Solution
			for _, state := range []string{"cold", "warm"} {
				var err error
				if sol, err = SolveInto(p, ws, sol); err != nil {
					t.Fatal(err)
				}
				if got := solutionDigest(sol); got != c.want {
					t.Errorf("%s workspace: digest %s, want %s", state, got, c.want)
				}
			}
		})
	}
}
