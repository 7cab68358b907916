package device

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/blocktri"
	"repro/internal/linalg"
)

// operatorZoo is the device set the operator pins and the layout test
// run over: the standard test device, three orbitals per atom, 64×64
// electron blocks, and the standard device under a profile and a
// disorder seed.
func operatorZoo(t *testing.T) map[string]*Device {
	t.Helper()
	profiled := buildWith(t, testProfile(), 7)
	return map[string]*Device{
		"24x6x2":         MustBuild(TestParams(24, 6, 2)),
		"18x3x3":         MustBuild(TestParams(18, 3, 3)),
		"64x4x4":         MustBuild(TestParams(64, 4, 4)),
		"24x6x2+profile": profiled,
	}
}

// operatorDigest is the SHA-256 over the bits of every block of H(kz) at
// every kz, then of Φ(qz) at every qz, in Diag, Upper, Lower order.
func operatorDigest(d *Device) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	add := func(m *blocktri.Matrix) {
		for _, blocks := range [][]*linalg.Matrix{m.Diag, m.Upper, m.Lower} {
			for _, blk := range blocks {
				for _, v := range blk.Data {
					put(real(v))
					put(imag(v))
				}
			}
		}
	}
	for ik := 0; ik < d.P.Nkz; ik++ {
		add(d.Hamiltonian(ik))
	}
	for iq := 0; iq < d.P.Nqz(); iq++ {
		add(d.Dynamical(iq))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOperatorDigests pins the assembled H(kz) and Φ(qz) of the zoo bit
// for bit, at the digests of commit 04d4b6a: however the assembly
// addresses its blocks, every element must keep the value of the same
// expression. Device construction goes through math.Exp and
// math.Hypot, which are assembly on 386 and round differently there, so
// each row carries one digest per architecture and skips elsewhere.
func TestOperatorDigests(t *testing.T) {
	want := map[string]map[string]string{
		"amd64": {
			"24x6x2":         "85c7dc21b898c8c363d5572273a79a751a8ea97a03c75f35894db7442d13717d",
			"18x3x3":         "fd4f37c32acd653f99281587c92cb77d77c2d5772aed4f94542c94804f7d08a5",
			"64x4x4":         "584d7cce38ade89d26691d98be4361e369194296902a755472e2d8bdf325253f",
			"24x6x2+profile": "a472f11d2c1b5ec79b5a7f752aa3c08988846a720419d597fe28bca068f736ad",
		},
		"386": {
			"24x6x2":         "b0ac4a4ed25a6e9c7469f89d9bbe62d81087672fb7d93d655fe1b3cce0b1e30b",
			"18x3x3":         "8669728788670b9c4924b652a1d1ff4284f32e7c08b3dcce56c2dbbc16893f1a",
			"64x4x4":         "83ff689973462ab860faeebc52ee8d3b6d384f29e2dfaab762839ed7fb93e716",
			"24x6x2+profile": "3d335b9344b1e3acd32fc65596a7a1b1897f3353edf52f69354316f8c150f86d",
		},
	}[runtime.GOARCH]
	if want == nil {
		t.Skipf("no %s digests", runtime.GOARCH)
	}
	for name, d := range operatorZoo(t) {
		if got := operatorDigest(d); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}

// TestPairBlock checks the layout against the assembled operators: for
// every atom a and each of its neighbours b, in H(kz) at every kz and
// Φ(qz) at every qz of the zoo, PairBlock(a, b) is the n×n window that
// holds the pair's coupling — the dense operator's window at rows a·n,
// columns b·n, nonzero — and PairBlock(b, a) is its mirror (b's own
// list holds a); PairBlock(a, a) is the onsite window. A pair two slabs
// apart panics, in either order.
func TestPairBlock(t *testing.T) {
	for name, d := range operatorZoo(t) {
		check := func(op string, m *blocktri.Matrix, n int) {
			dense := m.Dense()
			for a := range d.Neigh {
				for _, b := range append([]int{a}, d.Neigh[a]...) {
					blk, r0, c0 := d.PairBlock(m.Diag, m.Upper, m.Lower, a, b, n)
					nonzero := false
					for r := 0; r < n; r++ {
						for c := 0; c < n; c++ {
							v := blk.At(r0+r, c0+c)
							if want := dense.At(a*n+r, b*n+c); v != want {
								t.Fatalf("%s %s: PairBlock(%d, %d)[%d][%d] = %v, operator holds %v", name, op, a, b, r, c, v, want)
							}
							nonzero = nonzero || v != 0
						}
					}
					if !nonzero {
						t.Fatalf("%s %s: PairBlock(%d, %d) is a zero window", name, op, a, b)
					}
				}
			}
		}
		for ik := 0; ik < d.P.Nkz; ik++ {
			check(fmt.Sprint("H(", ik, ")"), d.Hamiltonian(ik), d.P.Norb)
		}
		for iq := 0; iq < d.P.Nqz(); iq++ {
			check(fmt.Sprint("Φ(", iq, ")"), d.Dynamical(iq), N3D)
		}

		h := d.Hamiltonian(0)
		a, b := d.Slabs[0][0], d.Slabs[2][0]
		for _, pr := range [][2]int{{a, b}, {b, a}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: PairBlock(%d, %d) across two slabs did not panic", name, pr[0], pr[1])
					}
				}()
				d.PairBlock(h.Diag, h.Upper, h.Lower, pr[0], pr[1], d.P.Norb)
			}()
		}
	}
}

// couplingDigest is the SHA-256 over Neigh (each atom's count, then its
// list), SlotOff and the bits of every ∇iH_ab, in (a, k, i) order for b
// the k-th neighbour of a: the pair couplings the scattering
// self-energies multiply by, which the operator digests do not see.
func couplingDigest(d *Device) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, list := range d.Neigh {
		put(uint64(len(list)))
		for _, n := range list {
			put(uint64(n))
		}
	}
	for _, o := range d.SlotOff {
		put(uint64(o))
	}
	for a, list := range d.Neigh {
		for k := range list {
			for i := 0; i < N3D; i++ {
				for _, v := range d.GradH(a, 1+k, i) {
					put(math.Float64bits(real(v)))
					put(math.Float64bits(imag(v)))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCouplingDigests pins the neighbour lists, the slot layout and every
// ∇H block of the zoo bit for bit, at the digests of commit 36814fb, with
// one row per architecture as TestOperatorDigests.
func TestCouplingDigests(t *testing.T) {
	want := map[string]map[string]string{
		"amd64": {
			"24x6x2":         "5b314d540387a3fdb1ed666ca47ab7eb08478493a4b08f49f08dbee45a5ecb9d",
			"18x3x3":         "9b294ca6ffc78151d2f6bf84fb6bc2f9760cfa7c3564957336d616cb404f5747",
			"64x4x4":         "52e6349ed2c41ebfb0debd5f60eb6db0f7f8da93eb19a715f49d8ad165ec7516",
			"24x6x2+profile": "0905d9e94a3f32e52629a7ac812902594a88116020c6d5af47e2921bb03e3e53",
		},
		"386": {
			"24x6x2":         "3cf90e3b5524d2093cec35bbad875e030e312e2bb59490cbaf811148b047f251",
			"18x3x3":         "161fa81a56753c2f2ff36359080cd1f0c6681cb680db9cf037e6687c92a0d315",
			"64x4x4":         "9973dd0d6532f53b12682a763ece53b8024e09629cb5e8d02f61f49bacb9cc4c",
			"24x6x2+profile": "7b38f6889cee6c04f04046fbf4f241450bace7fa5b5e91a42bb1bd9c51a6953b",
		},
	}[runtime.GOARCH]
	if want == nil {
		t.Skipf("no %s digests", runtime.GOARCH)
	}
	for name, d := range operatorZoo(t) {
		if got := couplingDigest(d); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}
