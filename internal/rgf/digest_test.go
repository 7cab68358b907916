package rgf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

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

// TestSolveDigests pins the RGF recursion bit for bit on the block sizes
// the benchmark devices use (12 and 64) and on unequal slabs, whose
// coupling products are rectangular and straddle the GEMM kernels' size
// dispatch. The digests were computed at commit 6754d63, before small
// products left the packed GEMM kernel: the row-panel kernel must keep
// every rounding.
func TestSolveDigests(t *testing.T) {
	for _, c := range []struct {
		name  string
		sizes []int
		want  string
	}{
		{"block12", []int{12, 12, 12, 12}, "db0b1c0f7ef3b5edc657fd46048ee1a0a8e47cab94799ab189359076d448e32e"},
		{"block64", []int{64, 64, 64}, "0e76395a975833b84c91e955e9c98fbca6b64ca406f7d8f9aba79e1177a7a8dc"},
		{"unequal", []int{8, 18, 48, 12, 5}, "f690269800279bf66c8b42bd8bcf780d5d0155c60f1788433367ac285528a628"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := randomProblem(rand.New(rand.NewSource(int64(len(c.sizes)*100+c.sizes[0]))), c.sizes)
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
