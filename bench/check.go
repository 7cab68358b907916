package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/dist"
)

// Correctness tolerances. Sequential fp64 results are pinned to 1e-12
// relative; the distributed fp64 schedules must agree with each other
// bitwise and with the sequential solver within 1e-12 (reduction order);
// mixed precision within the repo's documented dist.MixedCurrentTol.
const (
	exactTol = 1e-12
	// EnergyBalance (phonon gain ÷ electron loss) band. The repo's own
	// facade test accepts 0.5–1.5 on the standard device; the coarse
	// 12-point energy grid of iv_gf_bound measures 1.39–1.53 at the
	// commit that defined the benchmark, so the upper edge is 2.
	balanceLo, balanceHi = 0.5, 2.0
)

// goldenEntry pins one job's converged result.
type goldenEntry struct {
	Current    float64 `json:"current"`
	Iterations int     `json:"iterations,omitempty"` // 0 = not pinned
	Tol        float64 `json:"tol,omitempty"`        // 0 = exactTol
}

// goldenFile is bench/golden.json: per workload, per job name.
type goldenFile struct {
	Note      string                            `json:"note"`
	Workloads map[string]map[string]goldenEntry `json:"workloads"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// gate counts operations and correctness checks; every miss is a failed
// operation and makes the command exit non-zero.
type gate struct {
	Attempted, Failed int
	Failures          []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.Attempted++
	if !ok {
		g.Failed++
		if len(g.Failures) < 50 {
			g.Failures = append(g.Failures, fmt.Sprintf(format, args...))
		}
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// golden compares one result with its pin, if the file has one. The
// iteration count is compared only when pinIters is set: a warm-started
// run legitimately takes fewer iterations than the pinned cold count.
func (g *gate) golden(gold map[string]goldenEntry, name string, current float64, iterations int, pinIters bool) {
	e, ok := gold[name]
	if !ok {
		return
	}
	tol := e.Tol
	if tol == 0 {
		tol = exactTol
	}
	g.check(relDiff(current, e.Current) <= tol, "%s: current %.15g differs from golden %.15g by %.2e (tol %.0e)",
		name, current, e.Current, relDiff(current, e.Current), tol)
	if pinIters && e.Iterations > 0 {
		g.check(iterations == e.Iterations, "%s: %d iterations, golden %d", name, iterations, e.Iterations)
	}
}

// checkCampaign gates one pass of a solve campaign.
func (g *gate) checkCampaign(p pass, gold map[string]goldenEntry) {
	byName := map[string]solveOutcome{}
	for _, o := range p.Solves {
		g.check(o.Err == nil, "%v", o.Err)
		if o.Result == nil {
			continue
		}
		byName[o.Job.Name] = o
		r := o.Result
		g.check(r.Converged, "%s: not converged after %d iterations", o.Job.Name, r.Iterations)
		g.check(r.EnergyBalance >= balanceLo && r.EnergyBalance <= balanceHi,
			"%s: energy balance %.4f outside [%.1f, %.1f]", o.Job.Name, r.EnergyBalance, balanceLo, balanceHi)
		g.golden(gold, o.Job.Name, r.Current, r.Iterations, true)
	}

	// Cross-checks between the execution variants of one device.
	seq, ok := byName["seq"]
	if !ok {
		return
	}
	iterCurrents := func(o solveOutcome) []float64 {
		out := make([]float64, len(o.Result.Trace))
		for i, st := range o.Result.Trace {
			out[i] = st.Current
		}
		return out
	}
	ref := iterCurrents(seq)
	within := func(name string, tol float64) {
		o, ok := byName[name]
		if !ok {
			return
		}
		cur := iterCurrents(o)
		same := len(cur) == len(ref)
		worst := 0.0
		for i := 0; same && i < len(cur); i++ {
			worst = math.Max(worst, relDiff(cur[i], ref[i]))
		}
		g.check(same && worst <= tol, "%s vs seq: %d vs %d iterations, worst per-iteration current deviation %.2e (tol %.0e)",
			name, len(cur), len(ref), worst, tol)
	}
	for _, name := range []string{"p2/phases", "p2/overlap", "p2/pipeline", "p2/auto"} {
		within(name, exactTol)
	}
	within("p2/mixed", dist.MixedCurrentTol)
	if base, ok := byName["p2/phases"]; ok {
		want := iterCurrents(base)
		for _, name := range []string{"p2/overlap", "p2/pipeline"} {
			o, ok := byName[name]
			if !ok {
				continue
			}
			got := iterCurrents(o)
			equal := len(got) == len(want)
			for i := 0; equal && i < len(got); i++ {
				equal = math.Float64bits(got[i]) == math.Float64bits(want[i])
			}
			g.check(equal, "%s: per-iteration currents not bitwise equal to p2/phases", name)
		}
	}
}

// checkTenants gates one pass of the qtd script.
func (g *gate) checkTenants(p pass, gold map[string]goldenEntry) {
	byID := map[string]reqOutcome{}
	for _, o := range p.Requests {
		if o.Record.ID != "" {
			byID[o.Record.ID] = o
		}
	}
	var p2 []reqOutcome
	for _, o := range p.Requests {
		g.check(o.Err == nil && o.Status/100 == 2, "%s %s: HTTP %d: %v", o.Req.Tenant, o.Req.Name, o.Status, o.Err)
		if o.Err != nil {
			continue
		}
		rec := o.Record
		g.check(rec.Converged, "%s %s: run %s not converged after %d iterations", o.Req.Tenant, o.Req.Name, rec.ID, rec.Iterations)
		name := strings.TrimPrefix(o.Req.Name, "dup:")
		switch o.Class {
		case classCached:
			src, ok := byID[rec.SourceRun]
			g.check(ok && math.Float64bits(src.Record.Current) == math.Float64bits(rec.Current) && src.Record.Iterations == rec.Iterations,
				"%s %s: cached answer %s (current %.15g, %d iterations) differs from its source run %s",
				o.Req.Tenant, o.Req.Name, rec.ID, rec.Current, rec.Iterations, rec.SourceRun)
		case classComputed, classWarm:
			g.golden(gold, name, rec.Current, rec.Iterations, o.Class == classComputed)
			if rec.Config.Ranks == 2 && !rec.Config.AutoPlan {
				p2 = append(p2, o)
			}
		}
	}
	for i := 1; i < len(p2); i++ {
		g.check(math.Float64bits(p2[i].Record.Current) == math.Float64bits(p2[0].Record.Current),
			"%s: current not bitwise equal to %s", p2[i].Req.Name, p2[0].Req.Name)
	}
}
