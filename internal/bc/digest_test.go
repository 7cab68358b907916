package bc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// resultDigest hashes the raw IEEE-754 bits of Surface, SigmaR and Gamma
// plus the iteration count, so any change in product association or
// summation order shows.
func resultDigest(r *Result) string {
	h := sha256.New()
	var b [16]byte
	for _, m := range []*linalg.Matrix{r.Surface, r.SigmaR, r.Gamma} {
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	binary.LittleEndian.PutUint64(b[:8], uint64(r.Iters))
	h.Write(b[:8])
	return hex.EncodeToString(h.Sum(nil))
}

// phononLeadBlocks builds a phonon-like lead: real symmetric positive
// onsite force-constant block Φ₀₀ and real inter-cell coupling Φ₀₁,
// returning d00 = (ω+iη)²·I − Φ₀₀ and τ = −Φ₀₁.
func phononLeadBlocks(rng *rand.Rand, n int, omega, eta float64) (d00, tau *linalg.Matrix) {
	phi00 := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := complex(-0.05*rng.Float64(), 0)
			phi00.Set(i, j, v)
			phi00.Set(j, i, v)
		}
		phi00.Set(i, i, complex(1+0.2*rng.Float64(), 0))
	}
	tau = linalg.New(n, n)
	for i := range tau.Data {
		tau.Data[i] = complex(0.08*rng.Float64(), 0)
	}
	z := complex(omega, eta)
	d00 = linalg.Scale(linalg.New(n, n), -1, phi00)
	for i := 0; i < n; i++ {
		d00.Set(i, i, d00.At(i, i)+z*z)
	}
	return d00, tau
}

// TestSurfaceGFDigests pins the decimation bit for bit. The digests were
// computed at commit cdf4be2 (four independent Mul3 per step, allocating
// Inverse): sharing α·g and β·g and running on a workspace keeps every
// product's association and every rounding, so nothing may move.
func TestSurfaceGFDigests(t *testing.T) {
	for _, c := range []struct {
		name   string
		n      int
		phonon bool
		want   string
	}{
		{"electron6", 6, false, "56fec3d1ec66b110c884625f79f09d9b118dfd456662190bdc5c58fcab44e623"},
		{"electron64", 64, false, "1d4d89845368f1aff344f2a6cb2af580b9ed38da29082a09be1e654ba1e1010b"},
		{"phonon6", 6, true, "e98068f1f13f3f06af6a391b8ac1fdaf0bee62068be92f3433d30cd401857abb"},
		{"phonon48", 48, true, "3ba5a6a45075d5ef26cdc5edea5c2e2be49cd9c6ee2782eca85c8ecae636e135"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + c.n)))
			var d00, tau *linalg.Matrix
			if c.phonon {
				d00, tau = phononLeadBlocks(rng, c.n, 0.9, 2e-3)
			} else {
				d00, tau = leadBlocks(rng, c.n, 0.4, 1e-3)
			}
			// Cold workspace, then the same workspace warm: reuse must
			// not leak state into the result.
			ws := linalg.NewWorkspace()
			for _, state := range []string{"cold", "warm"} {
				res, err := SurfaceGFInto(ws, d00, tau)
				if err != nil {
					t.Fatal(err)
				}
				if got := resultDigest(res); got != c.want {
					t.Errorf("%s workspace: digest %s (%d iterations), want %s", state, got, res.Iters, c.want)
				}
			}
		})
	}
}

// TestSurfaceGFWork pins the work of one decimation: six n³ products per
// step (α·g and β·g shared by the four triple products) plus two for
// Σᴿ = τ·gs·τᴴ, one factorization and inverse per step plus one for gs —
// and, on a warm workspace, no heap allocation beyond the Result the
// boundary cache retains (the struct and three matrices, two allocations
// each).
func TestSurfaceGFWork(t *testing.T) {
	const n = 12
	d00, tau := leadBlocks(rand.New(rand.NewSource(7)), n, 0.4, 1e-3)
	ws := linalg.NewWorkspace()
	linalg.EnableFlopCounting(true)
	linalg.ResetFlops()
	res, err := SurfaceGFInto(ws, d00, tau)
	got := linalg.Flops()
	linalg.EnableFlopCounting(false)
	if err != nil {
		t.Fatal(err)
	}
	const n3 = n * n * n
	it := int64(res.Iters)
	lu := (it + 1) * (8*n3*2/3 + 8*n3)
	if want := (6*it+2)*8*n3 + lu; got != want {
		t.Errorf("%d flops over %d iterations, want %d (%d GEMMs, want %d)", got, it, want, (got-lu)/(8*n3), 6*it+2)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SurfaceGFInto(ws, d00, tau); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Errorf("warm SurfaceGFInto allocates %.0f times, want ≤ 7 (the retained Result)", allocs)
	}
}

// BenchmarkSurfaceGF measures one cold-cache boundary computation the way
// the point solver runs it: a 64×64 lead on the worker's warm workspace.
// allocs/op = the retained Result is the invariant the CI guard tracks.
func BenchmarkSurfaceGF(b *testing.B) {
	b.ReportAllocs()
	d00, tau := leadBlocks(rand.New(rand.NewSource(1)), 64, 0.4, 1e-3)
	ws := linalg.NewWorkspace()
	if _, err := SurfaceGFInto(ws, d00, tau); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SurfaceGFInto(ws, d00, tau); err != nil {
			b.Fatal(err)
		}
	}
}
