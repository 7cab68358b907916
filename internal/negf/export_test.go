package negf

// The in-package test support loop_test.go (package negf_test, which
// drives the self-consistent loop through internal/dist) shares with the
// tests of this package.
var (
	ParamsForTest        = testParams
	ProfileForTest       = testProfile
	ConservationResidual = conservationResidual
	AntiHermResidual     = antiHermResidual
)

// The documented invariant tolerances of conservation_test.go.
const (
	SCBAConservTol = scbaConservTol
	AntiHermFP64   = antiHermFP64
	AntiHermMixed  = antiHermMixed
)
