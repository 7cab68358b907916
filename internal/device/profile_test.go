package device

import (
	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// testProfile exercises every lowering channel: two heterojunction
// regions, one gate well, doping, vacancies and strain.
func testProfile() *Profile {
	return &Profile{
		Regions:   []Region{{From: 0, To: 1, Offset: 0.12}, {From: 4, To: 5, Offset: -0.05}},
		Gates:     []Gate{{Center: 2.5, Width: 1.2, Depth: 0.15}},
		Doping:    &Doping{Fraction: 0.25, Shift: -0.1},
		Vacancies: &Vacancies{Fraction: 0.08},
		Strain:    &Strain{Amplitude: 0.05},
	}
}

// buildWith builds the standard test device and lowers pr onto it with
// the given disorder seed.
func buildWith(t *testing.T, pr *Profile, seed uint64) *Device {
	t.Helper()
	d, err := Build(TestParams(24, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if pr != nil {
		if err := pr.Apply(d, seed); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func matricesEqual(a, b *linalg.Matrix) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] { // bitwise, no tolerance
			return false
		}
	}
	return true
}

// TestProfileDeterministic is the lowering contract: same (profile,
// seed) → bitwise-identical Hamiltonian, dynamical matrix and ∇H.
func TestProfileDeterministic(t *testing.T) {
	pr := testProfile()
	d1 := buildWith(t, pr, 42)
	d2 := buildWith(t, pr, 42)
	p := d1.P
	for ikz := 0; ikz < p.Nkz; ikz++ {
		h1, h2 := d1.Hamiltonian(ikz), d2.Hamiltonian(ikz)
		for s := 0; s < p.Bnum; s++ {
			if !matricesEqual(h1.Diag[s], h2.Diag[s]) {
				t.Fatalf("H(kz=%d) diag block %d differs between identical realizations", ikz, s)
			}
			if s < p.Bnum-1 && !matricesEqual(h1.Upper[s], h2.Upper[s]) {
				t.Fatalf("H(kz=%d) upper block %d differs between identical realizations", ikz, s)
			}
		}
		f1, f2 := d1.Dynamical(ikz), d2.Dynamical(ikz)
		for s := 0; s < p.Bnum; s++ {
			if !matricesEqual(f1.Diag[s], f2.Diag[s]) {
				t.Fatalf("Phi(qz=%d) diag block %d differs between identical realizations", ikz, s)
			}
		}
	}
	for a := 0; a < p.Na; a++ {
		for _, b := range d1.Neigh[a] {
			for i := 0; i < N3D; i++ {
				if !matricesEqual(d1.GradH(a, b, i), d2.GradH(a, b, i)) {
					t.Fatalf("gradH(%d,%d,%d) differs between identical realizations", a, b, i)
				}
			}
		}
	}
}

// TestProfileSeedChangesDisorder: a different seed must redraw the
// disorder, and only the disorder — geometry and neighbour lists stay
// identical (the property warm-start compatibility rests on).
func TestProfileSeedChangesDisorder(t *testing.T) {
	pr := testProfile()
	d1 := buildWith(t, pr, 1)
	d2 := buildWith(t, pr, 2)
	if len(d1.Neigh) != len(d2.Neigh) {
		t.Fatal("neighbour list length changed with disorder seed")
	}
	for a := range d1.Neigh {
		if len(d1.Neigh[a]) != len(d2.Neigh[a]) {
			t.Fatalf("neighbour list of atom %d changed with disorder seed", a)
		}
	}
	same := true
	h1, h2 := d1.Hamiltonian(0), d2.Hamiltonian(0)
	for s := 0; s < d1.P.Bnum && same; s++ {
		same = matricesEqual(h1.Diag[s], h2.Diag[s])
	}
	if same {
		t.Fatal("different disorder seeds produced identical Hamiltonians")
	}
}

// TestProfileDeterministicLayersIgnoreSeed: with only RNG-free channels
// (regions + gates) the seed must not matter at all.
func TestProfileDeterministicLayersIgnoreSeed(t *testing.T) {
	pr := &Profile{
		Regions: []Region{{From: 1, To: 3, Offset: 0.2}},
		Gates:   []Gate{{Center: 3, Width: 1, Depth: 0.1}},
	}
	d1 := buildWith(t, pr, 7)
	d2 := buildWith(t, pr, 8)
	h1, h2 := d1.Hamiltonian(1), d2.Hamiltonian(1)
	for s := 0; s < d1.P.Bnum; s++ {
		if !matricesEqual(h1.Diag[s], h2.Diag[s]) {
			t.Fatalf("seed leaked into an RNG-free profile (diag block %d)", s)
		}
	}
}

// TestProfilePreservesHermiticity: every lowering channel must keep
// H(kz) Hermitian and ∇H_ba = (∇H_ab)ᴴ.
func TestProfilePreservesHermiticity(t *testing.T) {
	d := buildWith(t, testProfile(), 3)
	p := d.P
	for ikz := 0; ikz < p.Nkz; ikz++ {
		h := d.Hamiltonian(ikz)
		for s := 0; s < p.Bnum; s++ {
			blk := h.Diag[s]
			for i := 0; i < blk.Rows; i++ {
				for j := 0; j < blk.Cols; j++ {
					diff := blk.At(i, j) - conj(blk.At(j, i))
					if math.Hypot(real(diff), imag(diff)) > 1e-14 {
						t.Fatalf("H(kz=%d) diag block %d not Hermitian at (%d,%d)", ikz, s, i, j)
					}
				}
			}
		}
	}
	for a := 0; a < p.Na; a++ {
		for _, b := range d.Neigh[a] {
			for i := 0; i < N3D; i++ {
				g, gt := d.GradH(a, b, i), d.GradH(b, a, i)
				if g == nil || gt == nil {
					t.Fatalf("missing gradH for bond (%d,%d) after profile", a, b)
				}
				gh := g.H()
				if !matricesEqual(gh, gt) {
					t.Fatalf("gradH(%d,%d,%d) lost Hermitian pairing after strain", a, b, i)
				}
			}
		}
	}
}

// TestProfileRegionShiftsOnsite: a region offset must appear exactly as
// a diagonal shift of the onsite blocks of its slabs and nowhere else.
func TestProfileRegionShiftsOnsite(t *testing.T) {
	const off = 0.3
	pr := &Profile{Regions: []Region{{From: 2, To: 2, Offset: off}}}
	base := buildWith(t, nil, 0)
	mod := buildWith(t, pr, 0)
	h0, h1 := base.Hamiltonian(0), mod.Hamiltonian(0)
	for s := 0; s < base.P.Bnum; s++ {
		b0, b1 := h0.Diag[s], h1.Diag[s]
		for i := 0; i < b0.Rows; i++ {
			for j := 0; j < b0.Cols; j++ {
				want := b0.At(i, j)
				if s == 2 && i == j {
					want += complex(off, 0)
				}
				// Tolerance, not bitwise: the kz-assembly adds zshift
				// after the onsite shift, which reassociates the sum.
				diff := b1.At(i, j) - want
				if math.Hypot(real(diff), imag(diff)) > 1e-12 {
					t.Fatalf("slab %d element (%d,%d): got %v want %v", s, i, j, b1.At(i, j), want)
				}
			}
		}
	}
}

// TestProfileValidate is the table-driven rejection test for malformed
// profiles.
func TestProfileValidate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		pr      Profile
		wantErr string
	}{
		{"empty ok", Profile{}, ""},
		{"full ok", *testProfile(), ""},
		{"region past end", Profile{Regions: []Region{{From: 0, To: 6, Offset: 1}}}, "slab range"},
		{"region negative start", Profile{Regions: []Region{{From: -1, To: 2}}}, "slab range"},
		{"region inverted", Profile{Regions: []Region{{From: 3, To: 1}}}, "slab range"},
		{"region NaN offset", Profile{Regions: []Region{{From: 0, To: 1, Offset: nan}}}, "offset must be finite"},
		{"gate zero width", Profile{Gates: []Gate{{Center: 1, Width: 0, Depth: 1}}}, "width must be positive"},
		{"gate NaN depth", Profile{Gates: []Gate{{Center: 1, Width: 1, Depth: nan}}}, "must be finite"},
		{"doping fraction above one", Profile{Doping: &Doping{Fraction: 1.5}}, "fraction must be in"},
		{"doping NaN shift", Profile{Doping: &Doping{Fraction: 0.1, Shift: nan}}, "shift must be finite"},
		{"vacancy negative fraction", Profile{Vacancies: &Vacancies{Fraction: -0.1}}, "fraction must be in"},
		{"vacancy bond scale above one", Profile{Vacancies: &Vacancies{Fraction: 0.1, BondScale: 2}}, "bond_scale"},
		{"strain amplitude one", Profile{Strain: &Strain{Amplitude: 1}}, "amplitude must be in"},
		{"strain NaN", Profile{Strain: &Strain{Amplitude: nan}}, "amplitude must be in"},
	}
	p := TestParams(24, 6, 2)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.pr.validate(p)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Validate() = %v, want nil", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }
