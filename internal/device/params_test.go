package device

import (
	"math"
	"strings"
	"testing"
)

// TestValidate is the table-driven contract test for Params.Validate:
// each row mutates one field of a known-good baseline and states what
// the validator must say about it.
func TestValidate(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name    string
		mutate  func(*Params)
		wantErr string // "" = must pass; otherwise substring of the error
	}{
		{"baseline ok", func(p *Params) {}, ""},
		{"zero atoms", func(p *Params) { p.Na = 0 }, "must be positive"},
		{"negative orbitals", func(p *Params) { p.Norb = -1 }, "must be positive"},
		{"atoms not divisible by slabs", func(p *Params) { p.Na = 25 }, "divisible"},
		{"too few slabs", func(p *Params) { p.Na = 16; p.Bnum = 2 }, "at least 3 slabs"},
		{"zero neighbours", func(p *Params) { p.NbT = 0 }, "NbT must be positive"},
		{"negative neighbours", func(p *Params) { p.NbT = -4 }, "NbT must be positive"},
		{"zero momentum points", func(p *Params) { p.Nkz = 0 }, "must be positive"},
		{"phonon grid too wide", func(p *Params) { p.Nomega = p.NE }, "must be < NE"},
		{"zero energy step", func(p *Params) { p.DE = 0 }, "DE must be positive"},
		{"NaN energy step", func(p *Params) { p.DE = nan }, "DE must be finite"},
		{"Inf energy step", func(p *Params) { p.DE = inf }, "DE must be finite"},
		{"NaN grid origin", func(p *Params) { p.Emin = nan }, "Emin must be finite"},
		{"-Inf grid origin", func(p *Params) { p.Emin = -inf }, "Emin must be finite"},
		{"NaN coupling", func(p *Params) { p.Coupling = nan }, "Coupling must be finite"},
		{"Inf coupling", func(p *Params) { p.Coupling = inf }, "Coupling must be finite"},
		{"NaN bias", func(p *Params) { p.Vds = nan }, "Vds and Mu must be finite"},
		{"-Inf bias", func(p *Params) { p.Vds = -inf }, "Vds and Mu must be finite"},
		{"NaN Fermi level", func(p *Params) { p.Mu = nan }, "Vds and Mu must be finite"},
		{"Inf Fermi level", func(p *Params) { p.Mu = inf }, "Vds and Mu must be finite"},
		{"negative bias ok", func(p *Params) { p.Vds = -0.3 }, ""},
		{"zero broadening", func(p *Params) { p.Eta = 0 }, "Eta must be positive"},
		{"NaN broadening", func(p *Params) { p.Eta = nan }, "Eta must be finite"},
		{"Inf broadening", func(p *Params) { p.Eta = inf }, "Eta must be finite"},
		{"zero temperature", func(p *Params) { p.TC = 0 }, "temperature must be positive"},
		{"NaN temperature", func(p *Params) { p.TC = nan }, "temperature must be finite"},
		{"Inf temperature", func(p *Params) { p.TC = inf }, "temperature must be finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := TestParams(24, 4, 2)
			tc.mutate(&p)
			err := p.Validate()
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
