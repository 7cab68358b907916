// Package qt is the top-level experiment API of the quantum transport
// library — one facade over the entire solver matrix: the one
// self-consistent loop of internal/dist (one iteration graph under the
// phases, overlap or pipeline schedule, on P simulated ranks or, without
// ranks, on the one-rank world), the SSE kernels and the
// fp64/mixed-precision SSE paths, mirroring how the paper's DaCe OMEN
// exposes a single data-centric entry point for a full electro-thermal
// simulation.
//
// A minimal simulation is three lines:
//
//	sim, _ := qt.NewFromConfig(qt.RunConfig{Spec: qt.Spec{Atoms: 24, Slabs: 6, Orbitals: 2}})
//	run, _ := sim.Start(context.Background())
//	res, _ := run.Wait()
//
// Every knob beyond the physical Spec is a RunConfig field, spelled as
// the qtd request body and the qtsim flags spell it — an unset knob is
// simply a zero field:
//
//	sim, err := qt.NewFromConfig(qt.RunConfig{
//		Spec:      spec,
//		Ranks:     8,         // distributed, P = 8 simulated ranks
//		Schedule:  "overlap", // task-graph execution
//		Precision: "mixed",   // §5.4 binary16 SSE + half wire
//		Tolerance: 1e-5,
//	})
//
// Start returns a run handle: the run is cancellable between
// self-consistent iterations through the context, and streams one
// IterStats per iteration (the unified telemetry schema of every run)
// while it executes. An I-V curve is
// a loop over biases, each point its own NewFromConfig and Start.
package qt

import (
	"fmt"

	"repro/internal/decomp"
	"repro/internal/device"
	"repro/internal/dist"
)

// Spec describes the physical experiment: the synthetic structure and
// the (kz, E, ω) grid it is solved on. Zero fields take the documented
// defaults (the paper-scale-down FinFET slice used across the repo);
// execution knobs — solver selection, precision, tolerances — are
// RunConfig fields, not Spec fields.
// The JSON field names are part of the service wire format (the qtd
// request body and registry records serialize Spec through RunConfig)
// and must stay stable.
type Spec struct {
	Atoms    int `json:"atoms,omitempty"`    // total atoms (default 24)
	Slabs    int `json:"slabs,omitempty"`    // block-tridiagonal slabs (default 6)
	Orbitals int `json:"orbitals,omitempty"` // orbitals per atom (default 2)

	MomentumPoints int     `json:"momentum_points,omitempty"` // Nkz = Nqz (default 3)
	EnergyPoints   int     `json:"energy_points,omitempty"`   // NE (default 24)
	PhononModes    int     `json:"phonon_modes,omitempty"`    // Nω (default 4)
	Bias           float64 `json:"bias,omitempty"`            // Vds in eV (default 0.3; WithBias sets any value, including 0)
	Temperature    float64 `json:"temperature,omitempty"`     // contact temperature in K (default 300)
	Coupling       float64 `json:"coupling,omitempty"`        // electron-phonon strength (default 0.08)
	Seed           uint64  `json:"seed,omitempty"`            // structure seed (default 0x5eed)

	// Profile is the optional device-zoo layer: heterojunction regions,
	// gates, doping/vacancy disorder and strain lowered onto the built
	// device (see device.Profile for the lowering contract). It is part
	// of the wire format and therefore of the RunConfig content hash —
	// each (profile, disorder_seed) realization is its own cache
	// artifact.
	Profile *device.Profile `json:"profile,omitempty"`
	// DisorderSeed seeds the profile's random channels for one ensemble
	// realization. Zero is a valid seed (it is not defaulted); setting it
	// without a Profile is a validation error, since it would otherwise
	// mint distinct cache keys for physically identical runs.
	DisorderSeed uint64 `json:"disorder_seed,omitempty"`
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.Atoms == 0 {
		s.Atoms = 24
	}
	if s.Slabs == 0 {
		s.Slabs = 6
	}
	if s.Orbitals == 0 {
		s.Orbitals = 2
	}
	if s.MomentumPoints == 0 {
		s.MomentumPoints = 3
	}
	if s.EnergyPoints == 0 {
		s.EnergyPoints = 24
	}
	if s.PhononModes == 0 {
		s.PhononModes = 4
	}
	if s.Bias == 0 {
		s.Bias = 0.3
	}
	if s.Temperature == 0 {
		s.Temperature = 300
	}
	if s.Coupling == 0 {
		s.Coupling = 0.08
	}
	if s.Seed == 0 {
		s.Seed = 0x5eed
	}
	return s
}

// params resolves the spec into device parameters.
func (s Spec) params() device.Params {
	p := device.TestParams(s.Atoms, s.Slabs, s.Orbitals)
	p.Nkz = s.MomentumPoints
	p.NE = s.EnergyPoints
	p.Nomega = s.PhononModes
	p.Vds = s.Bias
	p.TC = s.Temperature
	p.Coupling = s.Coupling
	p.Seed = s.Seed
	return p
}

// Build validates the (defaulted) spec and constructs the synthetic
// device — the entry point for exchange-level tools that drive the
// lower layers directly (paperbench's measured tables) but share
// the facade's structure definition. When the spec carries a Profile,
// the realization it names (profile, disorder seed) is lowered onto the
// device before it is returned.
func (s Spec) Build() (*device.Device, error) {
	s = s.withDefaults()
	if err := s.validateProfile(); err != nil {
		return nil, err
	}
	if err := s.params().Validate(); err != nil {
		return nil, fmt.Errorf("qt: %w", err)
	}
	return s.device()
}

// device builds the device of a defaulted, validated spec and lowers its
// profile (if any) onto it.
func (s Spec) device() (*device.Device, error) {
	dev, err := device.Build(s.params())
	if err != nil {
		return nil, fmt.Errorf("qt: %w", err)
	}
	if s.Profile != nil {
		if err := s.Profile.Apply(dev, s.DisorderSeed); err != nil {
			return nil, fmt.Errorf("qt: %w", err)
		}
	}
	return dev, nil
}

// validateProfile checks the profile-related spec fields that the
// device layer cannot see.
func (s Spec) validateProfile() error {
	if s.Profile == nil && s.DisorderSeed != 0 {
		return fmt.Errorf("qt: disorder_seed set without a profile: the seed only draws profile disorder, and a seed-only spec would mint distinct cache keys for identical runs")
	}
	return nil
}

// The schedules a distributed self-consistent iteration executes under:
// dist.Schedule under the facade's names.
const (
	// Phases is the bulk-synchronous order: GF phase, SSE exchange,
	// observable reduction strictly one after another — the iteration
	// graph at window depth 1 on one worker.
	Phases = dist.SchedulePhases
	// Overlap runs each iteration as a dataflow graph on a work-stealing
	// pool with nonblocking exchanges (§7.1.3) — the Pipeline graph at
	// window depth 1.
	Overlap = dist.ScheduleOverlap
	// Pipeline extends the Overlap graph across a window of
	// self-consistent iterations: the next iteration's boundary solves
	// and GF points start as soon as their mixed Σ is available, with a
	// correctness fence discarding speculated work once convergence or
	// cancellation lands. RunConfig.PipelineDepth is the window size.
	Pipeline = dist.SchedulePipeline
)

// parseSchedule maps the schedule field's spelling to a schedule. The
// empty string is the default schedule.
func parseSchedule(s string) (dist.Schedule, error) {
	switch s {
	case "phases", "":
		return Phases, nil
	case "overlap":
		return Overlap, nil
	case "pipeline":
		return Pipeline, nil
	}
	return Phases, fmt.Errorf("qt: unknown schedule %q (want phases, overlap or pipeline)", s)
}

// parsePrecision maps the precision field's spelling to a precision. The
// accepted spellings are decomp.ParsePrecision's — one parser for the
// whole stack — plus, as for the schedule and the kernel, the empty
// string for the default.
func parsePrecision(s string) (decomp.Precision, error) {
	if s == "" {
		return decomp.FP64, nil
	}
	p, err := decomp.ParsePrecision(s)
	if err != nil {
		return decomp.FP64, fmt.Errorf("qt: %w", err)
	}
	return p, nil
}

// Kernel selects the SSE schedule of a run without ranks.
type Kernel int

const (
	// DataCentric is the transformed kernel (map fission + SBSMM), the
	// paper's contribution. Default.
	DataCentric Kernel = iota
	// Baseline is the original OMEN-style 8-deep loop nest.
	Baseline
)

func (k Kernel) String() string {
	if k == Baseline {
		return "omen"
	}
	return "dace"
}

// parseKernel maps the kernel field's spelling to a Kernel. The empty
// string is the default (data-centric) kernel.
func parseKernel(s string) (Kernel, error) {
	switch s {
	case "dace", "":
		return DataCentric, nil
	case "omen":
		return Baseline, nil
	}
	return DataCentric, fmt.Errorf("qt: unknown kernel %q (want omen or dace)", s)
}
