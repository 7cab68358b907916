package qt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// RunConfig is the exported, JSON-stable form of a resolved experiment
// configuration: the defaulted Spec plus every option knob, each in its
// flag spelling. It is what the qtd service accepts as a request body
// and records in the run registry, and what the content-addressed result
// cache hashes — so the field set and JSON names are a wire format.
//
// The zero value of every knob means "option absent" (the facade
// default), mirroring how an unset functional option leaves the default
// in place; booleans are therefore spelled in their non-default
// direction (NoBoundaryCache). Two facade knobs have no RunConfig form:
// WithSSEKernel (an injected Go value cannot be serialized; Config drops
// it) and an explicit zero bias (Spec.Bias = 0 means the Spec default,
// exactly as in Spec itself — WithBias(0) is option-only).
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
	// the autotuner. In a resolved configuration (Simulation.Config
	// output) Schedule is always non-empty alongside it — that is how
	// NewFromConfig tells a resolved plan from a bare auto-plan request,
	// which it resolves by probing at New. The resolved knobs take part
	// in the content hash: two runs planned differently are different
	// artifacts.
	AutoPlan bool `json:"auto_plan,omitempty"`
	// Trace enables per-phase span recording (qt.WithTrace). It is part
	// of the hashed configuration: a traced and an untraced run are
	// different artifacts (the trace is part of the result), so they
	// address different cache entries.
	Trace bool `json:"trace,omitempty"`
}

// Config exports the simulation's resolved configuration: the defaulted
// Spec and every non-default knob. NewFromConfig(sim.Config()) rebuilds
// an equivalent simulation, and two simulations with the same resolved
// configuration report identical Configs regardless of the option order
// or spelling that produced them.
func (s *Simulation) Config() RunConfig {
	c := s.cfg
	// Report the resolved tile split (1×P when unset), so a defaulted and
	// an explicitly default-tiled configuration share one key.
	ta, te := s.Tiles()
	rc := RunConfig{
		Spec:            s.Spec,
		Ranks:           c.ranks,
		MaxIterations:   c.maxIter,
		Tolerance:       c.tol,
		Mixing:          c.mixing,
		NoBoundaryCache: !c.cacheBC,
		Anderson:        c.anderson,
		TileA:           ta,
		TileE:           te,
		Workers:         c.workers,
		ErrorProbe:      c.errorProbe,
		PipelineDepth:   c.pipelineDepth,
		AutoPlan:        c.autoPlan,
		Trace:           c.trace,
	}
	if c.schedule != Phases {
		rc.Schedule = c.schedule.String()
	}
	if c.autoPlan {
		// A resolved plan records its schedule even when it is the
		// phases default: a non-empty Schedule next to AutoPlan is the
		// resolved-plan marker NewFromConfig keys on.
		rc.Schedule = c.schedule.String()
	}
	if c.precision != FP64 {
		rc.Precision = c.precision.String()
	}
	if c.kernel != DataCentric {
		rc.Kernel = c.kernel.String()
	}
	return rc
}

// Options lowers the RunConfig back into the functional options it
// stands for. Zero-valued knobs produce no option, so a hand-written
// partial RunConfig gets the same defaults as a hand-written option
// list.
func (rc RunConfig) Options() ([]Option, error) {
	// Zero is "absent"; anything else — negative, NaN, ±Inf — goes to the
	// option's own validation instead of being silently dropped (a
	// negative rank count would otherwise solve as a sequential default
	// run; a non-finite value kept in the config could not be hashed by
	// Key).
	var opts []Option
	if rc.Ranks != 0 {
		opts = append(opts, WithRanks(rc.Ranks))
	}
	if rc.Schedule != "" {
		sch, err := ParseSchedule(rc.Schedule)
		if err != nil {
			return nil, err
		}
		if sch != Phases {
			opts = append(opts, WithSchedule(sch))
		}
	}
	if rc.Precision != "" {
		p, err := ParsePrecision(rc.Precision)
		if err != nil {
			return nil, err
		}
		if p != FP64 {
			opts = append(opts, WithPrecision(p))
		}
	}
	if rc.Kernel != "" {
		k, err := ParseKernel(rc.Kernel)
		if err != nil {
			return nil, err
		}
		if k != DataCentric {
			opts = append(opts, WithKernel(k))
		}
	}
	if rc.MaxIterations != 0 {
		opts = append(opts, WithMaxIterations(rc.MaxIterations))
	}
	if rc.Tolerance != 0 {
		opts = append(opts, WithTolerance(rc.Tolerance))
	}
	if rc.Mixing != 0 {
		opts = append(opts, WithMixing(rc.Mixing))
	}
	if rc.NoBoundaryCache {
		opts = append(opts, WithBoundaryCache(false))
	}
	if rc.Anderson {
		opts = append(opts, WithAnderson())
	}
	if rc.TileA != 0 || rc.TileE != 0 {
		opts = append(opts, WithTiles(rc.TileA, rc.TileE))
	}
	if rc.Workers != 0 {
		opts = append(opts, WithWorkers(rc.Workers))
	}
	if rc.ErrorProbe {
		opts = append(opts, WithErrorProbe())
	}
	if rc.PipelineDepth != 0 {
		opts = append(opts, WithPipelineDepth(rc.PipelineDepth))
	}
	if rc.AutoPlan {
		opts = append(opts, WithAutoPlan())
		if rc.Schedule != "" {
			// The plan knobs present in the config are a recorded
			// resolution — use them verbatim instead of re-probing.
			opts = append(opts, withResolvedPlan())
		}
	}
	if rc.Trace {
		opts = append(opts, WithTrace())
	}
	return opts, nil
}

// NewFromConfig builds the simulation a RunConfig describes — the
// deserialization path of the service layer. Extra options (e.g.
// WithWarmStart, which has no serialized form) apply after the config's
// own.
func NewFromConfig(rc RunConfig, extra ...Option) (*Simulation, error) {
	opts, err := rc.Options()
	if err != nil {
		return nil, fmt.Errorf("qt: %w", err)
	}
	return New(rc.Spec, append(opts, extra...)...)
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
