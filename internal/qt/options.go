package qt

import (
	"fmt"

	"repro/internal/sse"
)

// A simulation has one configuration, the RunConfig it carries: every
// knob is a RunConfig field, in the spelling a qtd request body and a
// qtsim flag share, and Simulation.resolve (config.go) does every
// combination check and all defaulting, once.
//
// An Option says what a RunConfig cannot, and lives beside it in
// unwired: an injected Go kernel, a warm-start state, and an explicit
// zero bias (Spec.Bias = 0 on the wire is the default bias).

// Option configures a Simulation beyond its RunConfig. Options are
// applied in order, later ones overwriting earlier ones; NewFromConfig
// cross-validates the result.
type Option func(*Simulation) error

// unwired is what an option can say that a RunConfig cannot.
type unwired struct {
	sseKernel sse.Kernel  // WithSSEKernel: a Go value; nil = derived from the config
	warm      *SigmaState // WithWarmStart: solver state; nil = cold start
	zeroBias  bool        // WithBias(0): Spec.Bias = 0 reads as "the default" on the wire
}

// WithSSEKernel injects a custom sequential SSE kernel — the advanced
// escape hatch the precision experiments use to wrap kernels (e.g. unit
// rescaling). Sequential only; it replaces the kernel the configuration
// derives, so it does not combine with the kernel or precision fields.
func WithSSEKernel(k sse.Kernel) Option {
	return func(s *Simulation) error {
		if k == nil {
			return fmt.Errorf("WithSSEKernel: kernel must be non-nil")
		}
		s.sseKernel = k
		return nil
	}
}

// WithBias overrides the drain-source bias (eV) after Spec defaulting,
// so an explicit zero bias is expressible — the knob an I-V curve turns.
func WithBias(v float64) Option {
	return func(s *Simulation) error {
		s.cfg.Spec.Bias = v
		s.zeroBias = v == 0
		return nil
	}
}

// WithWarmStart seeds the self-consistent loop with a previous run's
// scattering self-energy state instead of the cold Σ≷ = Π≷ = 0 ballistic
// guess — the near-identical-request accelerator of the qtd result
// cache: a converged neighbouring-bias state starts the loop close to
// its fixed point, cutting the iteration count. Sequential solver only;
// the state's tensor shapes must match the Spec's device (checked by
// NewFromConfig). The seed is copied at Start, so one cached state can
// seed many concurrent runs.
func WithWarmStart(st *SigmaState) Option {
	return func(s *Simulation) error {
		if st == nil {
			return fmt.Errorf("WithWarmStart: state must be non-nil")
		}
		s.warm = st
		return nil
	}
}
