package qt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/decomp"
	"repro/internal/dist"
	"repro/internal/negf"
	"repro/internal/plan"
)

// RunConfig is the configuration of a simulation — the only one, and the
// only way to set a knob. It is what NewFromConfig builds, the body the
// qtd service decodes and the record the run registry stores: the
// defaulted Spec plus every knob, each in its flag spelling. Its
// Identity, the configuration without the execution plan, is what the
// content-addressed result cache hashes. The field set and JSON names
// are a wire format.
//
// The zero value of every knob means "absent" (the default applies), so
// booleans are spelled in their non-default direction (NoBoundaryCache).
// A RunConfig is either raw — as built or decoded — or resolved: what
// Resolve made of a raw one, which is what Simulation.Config returns and
// the only form worth hashing. Two things a run can be
// given have no RunConfig form and are Options (see unwired):
// WithWarmStart carries a Go value, and WithBias(0) is an explicit zero
// bias, because Spec.Bias = 0 means the Spec default.
type RunConfig struct {
	Spec Spec `json:"spec"`

	Ranks     int    `json:"ranks,omitempty"`     // 0 = no ranks: the one-rank world
	Schedule  string `json:"schedule,omitempty"`  // parseSchedule spellings
	Precision string `json:"precision,omitempty"` // parsePrecision spellings
	Kernel    string `json:"kernel,omitempty"`    // parseKernel spellings

	MaxIterations   int     `json:"max_iterations,omitempty"`
	Tolerance       float64 `json:"tolerance,omitempty"`
	Mixing          float64 `json:"mixing,omitempty"`
	NoBoundaryCache bool    `json:"no_boundary_cache,omitempty"`
	Anderson        bool    `json:"anderson,omitempty"`
	TileA           int     `json:"tile_a,omitempty"`
	TileE           int     `json:"tile_e,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	ErrorProbe      bool    `json:"error_probe,omitempty"`
	// PipelineDepth is the iteration-window size of the pipeline
	// schedule: how many self-consistent iterations the task graph spans
	// at once (0 = the dist default, 2). Depth 1 is the overlap schedule.
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	// AutoPlan hands schedule, workers and pipeline depth to the
	// internal/plan rule. Without a Schedule it is a request, which
	// resolve answers from the world size and GOMAXPROCS alone
	// (plan.Rule), writing the plan in; next to a non-empty Schedule it
	// is a recorded plan, used as given — a resolved configuration always
	// has that form, the phases default spelled out. The resolved knobs
	// take part in Key, which names the execution; Identity drops them.
	AutoPlan bool `json:"auto_plan,omitempty"`
	// Trace enables per-phase span recording: the finished run's
	// Result.Spans carries it. Like the plan it is part of Key and not
	// of Identity: the spans describe an execution, not the result.
	Trace bool `json:"trace,omitempty"`
}

// Config returns the simulation's resolved configuration: the defaulted
// Spec and every non-default knob in its canonical spelling.
// NewFromConfig(sim.Config()) rebuilds an equivalent simulation, and two
// simulations with the same resolved configuration report identical
// Configs regardless of the spelling that produced them.
func (s *Simulation) Config() RunConfig { return s.cfg }

// NewFromConfig validates the configuration, builds the synthetic device
// and returns the runnable simulation — the one constructor. Options
// (what a RunConfig cannot say) are applied before the configuration is
// resolved.
func NewFromConfig(rc RunConfig, extra ...Option) (*Simulation, error) {
	s := &Simulation{cfg: rc, store: boundaries}
	for _, o := range extra {
		if err := o(s); err != nil {
			return nil, fmt.Errorf("qt: %w", err)
		}
	}
	if err := s.resolve(); err != nil {
		return nil, err
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// Resolve returns the resolved form of a raw configuration, or says why
// it has none: NewFromConfig's resolve step, without building the device.
// An auto_plan request resolves here too, to its recorded plan: the rule
// that answers it needs no device, so Resolve and NewFromConfig agree on
// every configuration's Key.
func Resolve(rc RunConfig) (RunConfig, error) {
	s := &Simulation{cfg: rc}
	err := s.resolve()
	return s.cfg, err
}

// resolve turns the raw configuration into the resolved one, in place,
// or says why it cannot: every range and combination rule, every
// default, and the canonical spelling of every knob are here and nowhere
// else, the plan of an auto_plan request included. It runs before the
// device is built and needs nothing but the configuration and, for a plan
// request, the host's GOMAXPROCS. Errors name the JSON field of the
// offending knob — what a qtd client sends and a qtsim flag fills — or
// the Option that carried it.
func (s *Simulation) resolve() error {
	rc := &s.cfg
	fail := func(format string, a ...any) error { return fmt.Errorf("qt: "+format, a...) }

	rc.Spec = rc.Spec.withDefaults()
	if s.zeroBias {
		rc.Spec.Bias = 0
	}
	if err := rc.Spec.params().Validate(); err != nil {
		return fail("spec: %w", err)
	}
	if err := rc.Spec.validateProfile(); err != nil {
		return err
	}

	// A field that is present must be in range. Zero is absent; anything
	// else — negative, NaN, ±Inf — is judged, not dropped: a negative rank
	// count would otherwise solve as a sequential default run, and a
	// non-finite value kept in the config could not be hashed by Key. The
	// float rules are written to reject NaN too.
	switch {
	case rc.Ranks < 0:
		return fail("ranks: world size must be >= 1, got %d", rc.Ranks)
	case rc.MaxIterations < 0:
		return fail("max_iterations: need at least one iteration, got %d", rc.MaxIterations)
	case rc.Workers < 0:
		return fail("workers: need at least one worker, got %d", rc.Workers)
	case rc.PipelineDepth < 0:
		return fail("pipeline_depth: depth must be >= 1, got %d", rc.PipelineDepth)
	case rc.TileA < 0 || rc.TileE < 0:
		return fail("tile_a, tile_e: tile counts must be positive (one may be 0 to infer), got %d×%d", rc.TileA, rc.TileE)
	case rc.Tolerance != 0 && (!(rc.Tolerance > 0) || math.IsInf(rc.Tolerance, 0)):
		return fail("tolerance: must be positive and finite, got %g", rc.Tolerance)
	case rc.Mixing != 0 && !(rc.Mixing > 0 && rc.Mixing <= 1):
		return fail("mixing: factor must be in (0, 1], got %g", rc.Mixing)
	}
	sch, err := parseSchedule(rc.Schedule)
	if err != nil {
		return err
	}
	prec, err := parsePrecision(rc.Precision)
	if err != nil {
		return err
	}
	kern, err := parseKernel(rc.Kernel)
	if err != nil {
		return err
	}

	// The loop defaults are negf's, filled by the rule both loops apply;
	// every knob left is zero (absent) or was judged in range above.
	l := negf.Loop{Mixing: rc.Mixing, MaxIter: rc.MaxIterations, Tol: rc.Tolerance}.WithDefaults()
	rc.Mixing, rc.MaxIterations, rc.Tolerance = l.Mixing, l.MaxIter, l.Tol

	// A plan that arrives with its schedule named is a recorded one.
	recorded := rc.AutoPlan && rc.Schedule != ""

	if rc.Ranks == 0 {
		// No ranks: the one-rank world, which owns the whole state.
		switch {
		case sch != Phases:
			return fail("schedule %v requires ranks", sch)
		case rc.TileA != 0 || rc.TileE != 0:
			return fail("tile_a, tile_e require ranks")
		case rc.Workers != 0:
			return fail("workers requires ranks")
		case rc.PipelineDepth != 0:
			return fail("pipeline_depth requires ranks")
		case rc.AutoPlan:
			return fail("auto_plan requires ranks: the planner chooses among distributed schedules")
		case kern == Baseline && prec == Mixed:
			return fail("kernel omen conflicts with precision mixed: the baseline loop nest has no binary16 form")
		}
	} else {
		// Ranks: the state is distributed.
		switch {
		case s.warm != nil:
			return fail("WithWarmStart requires a run without ranks")
		case kern == Baseline:
			return fail("kernel omen requires a run without ranks: the distributed SSE exchange is data-centric by construction")
		case rc.Anderson:
			return fail("anderson requires a run without ranks")
		case rc.PipelineDepth != 0 && sch != Pipeline:
			return fail("pipeline_depth requires schedule pipeline")
		case rc.AutoPlan && !recorded && (rc.Workers != 0 || rc.PipelineDepth != 0):
			return fail("auto_plan owns workers and pipeline_depth: drop them, or name the schedule to record a plan")
		case sch == Phases && rc.Workers > 1:
			return fail("workers %d requires schedule overlap or pipeline: phases runs on one worker", rc.Workers)
		}
	}
	if rc.ErrorProbe && prec != Mixed {
		return fail("error_probe requires precision mixed")
	}
	if rc.AutoPlan && !recorded {
		// A plan request: the rule's plan, written in as a recorded plan.
		pl := plan.Rule(rc.Ranks)
		sch, rc.Workers, rc.PipelineDepth, recorded = pl.Schedule, pl.Workers, pl.PipelineDepth, true
	}

	// Canonical spellings: a default is spelled absent, so equivalent
	// configurations share one Key — except a recorded plan's schedule,
	// whose presence is what marks the plan as recorded.
	rc.Schedule, rc.Precision, rc.Kernel = "", "", ""
	if sch != Phases || recorded {
		rc.Schedule = sch.String()
	}
	if prec != FP64 {
		rc.Precision = prec.String()
	}
	if kern != DataCentric {
		rc.Kernel = kern.String()
	}
	if rc.Ranks > 0 {
		// dist has the last word on the distributed knobs, and infers the
		// tile split (1×P when unset), which is recorded so a defaulted and
		// an explicitly default-tiled configuration share one key. Every
		// other rule dist checks was judged above, so only the split can
		// fail here.
		o, err := s.distOptions(nil, nil).Validate()
		if err != nil {
			return fail("tile_a, tile_e: %w", err)
		}
		rc.TileA, rc.TileE = o.Ta, o.TE
	}
	return nil
}

// schedule, precision and kernel decode the enum knobs of a resolved
// configuration for the loops. resolve has parsed each spelling, so none
// can fail here.
func (rc RunConfig) schedule() dist.Schedule     { v, _ := parseSchedule(rc.Schedule); return v }
func (rc RunConfig) precision() decomp.Precision { v, _ := parsePrecision(rc.Precision); return v }
func (rc RunConfig) kernel() Kernel              { v, _ := parseKernel(rc.Kernel); return v }

// Identity returns the result identity of a resolved configuration: the
// configuration with its execution plan — schedule, workers,
// pipeline_depth, auto_plan and trace — zeroed. The plan decides how a
// result is computed, never what it is: TestPlanInvariance solves one
// device under every plan and requires bitwise-equal currents, and
// TestIdentityClassifiesEveryField makes every RunConfig field pick a
// side. Identity().Key() is the address the qtd result cache and its
// in-flight table use, and Identity().WarmKey() its warm-start family.
func (rc RunConfig) Identity() RunConfig {
	rc.Schedule, rc.Workers, rc.PipelineDepth, rc.AutoPlan, rc.Trace = "", 0, 0, false, false
	return rc
}

// Key returns the canonical content hash of the configuration: the
// SHA-256 of its JSON form re-serialized with recursively sorted object
// keys, so the hash is independent of field order and stable across
// struct reordering. Semantically identical configurations share a key
// only when both are resolved (Simulation.Config output); hash resolved
// configs, not raw request bodies.
func (rc RunConfig) Key() string { return rc.hash(false) }

// WarmKey is Key with the bias and the disorder seed removed from the
// hash: it names the family of configurations identical up to Vds and
// disorder realization — the near-identical neighbours whose converged
// Σ≷ state a warm start may be seeded from. Disorder realizations of
// one profile share tensor shapes by the lowering contract, and
// neighbouring ensemble members converge to nearby fixed points, so a
// sibling's Σ≷ is an excellent initial guess.
func (rc RunConfig) WarmKey() string { return rc.hash(true) }

// hash is the SHA-256 of the configuration's JSON form re-written with
// sorted keys, without the bias and the disorder seed when warm. Only a
// non-finite float makes a RunConfig unmarshalable, and NewFromConfig
// rejects those in every float field (TestNonFiniteConfigRejected), so for
// a configuration that was built the two panics are unreachable.
func (rc RunConfig) hash(warm bool) string {
	b, err := json.Marshal(rc)
	if err != nil {
		panic(fmt.Sprintf("qt: RunConfig not marshalable: %v", err))
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		panic(fmt.Sprintf("qt: RunConfig JSON not an object: %v", err))
	}
	if spec, ok := m["spec"].(map[string]any); ok && warm {
		delete(spec, "bias")
		delete(spec, "disorder_seed")
	}
	// A decoded object always re-marshals, its keys sorted at every level.
	canon, _ := json.Marshal(m)
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}
