package qt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/negf"
)

// RunConfig is the configuration of a simulation — the only one. It is
// the struct an Option writes into, the body the qtd service decodes, the
// record the run registry stores and the value the content-addressed
// result cache hashes: the defaulted Spec plus every knob, each in its
// flag spelling. The field set and JSON names are a wire format.
//
// The zero value of every knob means "absent" (the default applies), so
// booleans are spelled in their non-default direction (NoBoundaryCache).
// A RunConfig is either raw — as decoded, or as a list of options left
// it — or resolved: what Simulation.resolve made of a raw one, which is
// what Simulation.Config returns and the only form worth hashing. Three
// facade knobs have no RunConfig form (see unwired): WithSSEKernel and
// WithWarmStart carry Go values, and an explicit zero bias is
// option-only because Spec.Bias = 0 means the Spec default.
type RunConfig struct {
	Spec Spec `json:"spec"`

	Ranks     int    `json:"ranks,omitempty"`     // 0 = sequential solver
	Schedule  string `json:"schedule,omitempty"`  // ParseSchedule spellings
	Precision string `json:"precision,omitempty"` // ParsePrecision spellings
	Kernel    string `json:"kernel,omitempty"`    // ParseKernel spellings

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
	// schedule (qt.WithPipelineDepth; 0 = the dist default).
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	// AutoPlan records that the plan knobs were (or are to be) chosen by
	// the autotuner. Next to a non-empty Schedule it is a recorded plan,
	// used as given — a resolved configuration always has that form, the
	// phases default spelled out — and without one it is a request, which
	// New resolves by probing. The resolved knobs take part in the content
	// hash: two runs planned differently are different artifacts.
	AutoPlan bool `json:"auto_plan,omitempty"`
	// Trace enables per-phase span recording (qt.WithTrace). It is part
	// of the hashed configuration: a traced and an untraced run are
	// different artifacts (the trace is part of the result), so they
	// address different cache entries.
	Trace bool `json:"trace,omitempty"`
}

// Config returns the simulation's resolved configuration: the defaulted
// Spec and every non-default knob in its canonical spelling.
// NewFromConfig(sim.Config()) rebuilds an equivalent simulation, and two
// simulations with the same resolved configuration report identical
// Configs regardless of the option order or spelling that produced them.
func (s *Simulation) Config() RunConfig { return s.cfg }

// NewFromConfig builds the simulation a RunConfig describes — the
// deserialization path of the service layer. Extra options (e.g.
// WithWarmStart, which has no serialized form) are applied to the config
// before it is resolved.
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

// resolve turns the raw configuration into the resolved one, in place,
// or says why it cannot: every range and combination rule, every
// default, and the canonical spelling of every knob are here and nowhere
// else. It runs before the device is built and needs nothing but the
// configuration. Errors name the option of the offending knob whichever
// door it came through.
func (s *Simulation) resolve() error {
	rc := &s.cfg
	fail := func(format string, a ...any) error { return fmt.Errorf("qt: "+format, a...) }

	rc.Spec = rc.Spec.withDefaults()
	if s.zeroBias {
		rc.Spec.Bias = 0
	}
	if err := rc.Spec.params().Validate(); err != nil {
		return fail("%w", err)
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
		return fail("WithRanks: world size must be >= 1, got %d", rc.Ranks)
	case rc.MaxIterations < 0:
		return fail("WithMaxIterations: need at least one iteration, got %d", rc.MaxIterations)
	case rc.Workers < 0:
		return fail("WithWorkers: need at least one worker, got %d", rc.Workers)
	case rc.PipelineDepth < 0:
		return fail("WithPipelineDepth: depth must be >= 1, got %d", rc.PipelineDepth)
	case rc.TileA < 0 || rc.TileE < 0:
		return fail("WithTiles: tile counts must be positive (one may be 0 to infer), got %d×%d", rc.TileA, rc.TileE)
	case rc.Tolerance != 0 && (!(rc.Tolerance > 0) || math.IsInf(rc.Tolerance, 0)):
		return fail("WithTolerance: tolerance must be positive and finite, got %g", rc.Tolerance)
	case rc.Mixing != 0 && !(rc.Mixing > 0 && rc.Mixing <= 1):
		return fail("WithMixing: factor must be in (0, 1], got %g", rc.Mixing)
	}
	sch, err := ParseSchedule(rc.Schedule)
	if err != nil {
		return err
	}
	prec, err := ParsePrecision(rc.Precision)
	if err != nil {
		return err
	}
	kern, err := ParseKernel(rc.Kernel)
	if err != nil {
		return err
	}

	// The loop defaults are negf's: the one table both loops read.
	def := negf.DefaultOptions()
	if rc.MaxIterations == 0 {
		rc.MaxIterations = def.MaxIter
	}
	if rc.Tolerance == 0 {
		rc.Tolerance = def.Tol
	}
	if rc.Mixing == 0 {
		rc.Mixing = def.Mixing
	}

	// A plan that arrives with its schedule named is a recorded one.
	recorded := rc.AutoPlan && rc.Schedule != ""

	if rc.Ranks == 0 {
		// Sequential solver.
		switch {
		case sch != Phases:
			return fail("WithSchedule(%v) requires WithRanks", sch)
		case rc.TileA != 0 || rc.TileE != 0:
			return fail("WithTiles requires WithRanks")
		case rc.Workers != 0:
			return fail("WithWorkers requires WithRanks")
		case rc.PipelineDepth != 0:
			return fail("WithPipelineDepth requires WithRanks")
		case rc.AutoPlan:
			return fail("WithAutoPlan requires WithRanks: the planner chooses among distributed schedules")
		case kern == Baseline && prec == Mixed:
			return fail("WithKernel(Baseline) conflicts with WithPrecision(Mixed): the baseline loop nest has no binary16 form")
		case s.sseKernel != nil && (kern == Baseline || prec == Mixed):
			return fail("WithSSEKernel overrides the kernel: do not combine it with WithKernel or WithPrecision")
		}
	} else {
		// Distributed solver.
		switch {
		case s.warm != nil:
			return fail("WithWarmStart requires the sequential solver")
		case kern == Baseline:
			return fail("WithKernel(Baseline) requires the sequential solver: the distributed SSE exchange is data-centric by construction")
		case s.sseKernel != nil:
			return fail("WithSSEKernel requires the sequential solver")
		case rc.Anderson:
			return fail("WithAnderson requires the sequential solver")
		case rc.PipelineDepth != 0 && sch != Pipeline:
			return fail("WithPipelineDepth requires WithSchedule(Pipeline)")
		case sch == Pipeline && rc.ErrorProbe && rc.PipelineDepth != 1:
			return fail("WithErrorProbe requires WithPipelineDepth(1) under WithSchedule(Pipeline): the probe's blocking max-reduction would serialize a deeper iteration window")
		case rc.AutoPlan && rc.ErrorProbe:
			return fail("WithErrorProbe conflicts with WithAutoPlan: the planner may select a window deeper than 1, which cannot run the probe")
		case rc.AutoPlan && !recorded && (rc.Workers != 0 || rc.PipelineDepth != 0):
			return fail("WithAutoPlan owns the worker and pipeline-depth knobs: drop WithWorkers/WithPipelineDepth, or name the schedule to record a plan")
		}
	}
	if rc.ErrorProbe && (rc.Ranks == 0 || prec != Mixed) {
		return fail("WithErrorProbe requires WithRanks and WithPrecision(Mixed)")
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
		// an explicitly default-tiled configuration share one key.
		o, err := s.distOptions(nil, nil).Validate()
		if err != nil {
			return fail("%w", err)
		}
		rc.TileA, rc.TileE = o.Ta, o.TE
	}
	return nil
}

// schedule, precision and kernel decode the enum knobs of a resolved
// configuration for the loops. resolve has parsed each spelling, so none
// can fail here.
func (rc RunConfig) schedule() Schedule   { v, _ := ParseSchedule(rc.Schedule); return v }
func (rc RunConfig) precision() Precision { v, _ := ParsePrecision(rc.Precision); return v }
func (rc RunConfig) kernel() Kernel       { v, _ := ParseKernel(rc.Kernel); return v }

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

func (rc RunConfig) hash(warm bool) string {
	m := jsonObject(rc)
	if spec, ok := m["spec"].(map[string]any); ok && warm {
		delete(spec, "bias")
		delete(spec, "disorder_seed")
	}
	return canonicalHash(m)
}

// Key returns the canonical content hash of the defaulted Spec alone —
// the structure-level identity. RunConfig.Key covers the full resolved
// configuration and is what the service cache keys on.
func (s Spec) Key() string { return canonicalHash(jsonObject(s.withDefaults())) }

// jsonObject is v's JSON form parsed back into a generic object — what
// the content hashes edit and canonicalize. Only a non-finite float makes
// a RunConfig or Spec unmarshalable, and NewFromConfig rejects those in
// every float field (TestNonFiniteConfigRejected), so for a configuration
// that was built the two panics are unreachable.
func jsonObject(v any) map[string]any {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("qt: %T not marshalable: %v", v, err))
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		panic(fmt.Sprintf("qt: %T JSON not an object: %v", v, err))
	}
	return m
}

// canonicalHash is the SHA-256 of m written with recursively sorted keys.
func canonicalHash(m map[string]any) string {
	h := sha256.New()
	writeCanonical(h, m)
	return hex.EncodeToString(h.Sum(nil))
}

// writeCanonical streams a parsed-JSON value with sorted object keys —
// a canonical byte form to hash, independent of the encoder's field
// order.
func writeCanonical(w io.Writer, v any) {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		io.WriteString(w, "{")
		for i, k := range keys {
			if i > 0 {
				io.WriteString(w, ",")
			}
			kb, _ := json.Marshal(k)
			w.Write(kb)
			io.WriteString(w, ":")
			writeCanonical(w, t[k])
		}
		io.WriteString(w, "}")
	case []any:
		io.WriteString(w, "[")
		for i, e := range t {
			if i > 0 {
				io.WriteString(w, ",")
			}
			writeCanonical(w, e)
		}
		io.WriteString(w, "]")
	default:
		b, _ := json.Marshal(t)
		w.Write(b)
	}
}
