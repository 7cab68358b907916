package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/qt"
)

// solveJob is one solve of a campaign: the configuration the program
// receives and the role the correctness gate knows it by.
type solveJob struct {
	Name   string       // stable identifier ("seq/0.20", "p2/overlap"), the golden key
	Config qt.RunConfig // everything the program is told
}

// request is one qtd submission of the tenants script.
type request struct {
	Phase  int // barrier-separated phase (0 = A, 1 = B, 2 = C)
	Tenant string
	Name   string // what the request is ("seq/0.10", "dup:seq/0.10", "twin")
	Config qt.RunConfig
}

// workload describes one benchmark workload: a fixed campaign generated
// from the seed, and why it exists.
type workload struct {
	Name string
	Why  string
	// Spec is the device every solve of the workload runs on (bias and
	// seed are set per job).
	Spec qt.Spec
}

// service reports whether the workload is the qtd script rather than a
// campaign of in-process solves.
func (w workload) service() bool { return w.Name == "qtd_tenants" }

const (
	tolerance     = 1e-5
	maxIterations = 40
)

// The four workloads. Sizes are fixed by the issue that defined the
// benchmark; -quick swaps in the tiny devices of quickSpec.
var workloads = []workload{
	{
		Name: "iv_sse_bound",
		Why:  "12x12 blocks on a large (kz,E,w) grid: ~85% of an iteration is the sse tile and negf mix, so tile work shows and kernel work must not",
		Spec: qt.Spec{Atoms: 36, Slabs: 6, Orbitals: 2, MomentumPoints: 3, EnergyPoints: 32, PhononModes: 4},
	},
	{
		Name: "iv_gf_bound",
		Why:  "64x64 blocks on a small grid: linalg, rgf and the cold bc decimation dominate and sse is under 25%, the mirror image of iv_sse_bound",
		Spec: qt.Spec{Atoms: 64, Slabs: 4, Orbitals: 4, MomentumPoints: 2, EnergyPoints: 12, PhononModes: 2},
	},
	{
		Name: "dist_schedules",
		Why:  "one device solved sequentially and under P=2 phases, overlap, pipeline, pipeline+mixed and auto-plan: the only use of comm, decomp, half, sdfg, dist, plan",
		Spec: qt.Spec{Atoms: 24, Slabs: 6, Orbitals: 2, MomentumPoints: 3, EnergyPoints: 24, PhononModes: 4},
	},
	{
		Name: "qtd_tenants",
		Why:  "closed loop of 2 tenants over loopback HTTP against an in-process qtd: queue, cache, warm starts, registry and SSE decide the result",
		Spec: qt.Spec{Atoms: 24, Slabs: 6, Orbitals: 2, MomentumPoints: 3, EnergyPoints: 24, PhononModes: 4},
	},
}

// quickSpec is the tiny device -quick runs every workload on: large
// enough that every layer does real work, small enough that a full set
// ends in seconds.
var quickSpec = qt.Spec{Atoms: 12, Slabs: 3, Orbitals: 2, MomentumPoints: 2, EnergyPoints: 8, PhononModes: 2}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// baseConfig is the configuration every job of a workload starts from.
// The structure seed is pinned: the synthetic device's geometry jitter
// decides its neighbour lists and with them the convergence path (on
// iv_sse_bound structure seed 2 does not converge in 40 iterations and
// seed 3 needs 4 and 24), so a device that followed -seed would make the
// amount of work, not the code, the largest term in every metric.
func (w workload) baseConfig(quick bool) qt.RunConfig {
	spec := w.Spec
	if quick {
		spec = quickSpec
	}
	spec.Seed = 0x5eed
	return qt.RunConfig{Spec: spec, Tolerance: tolerance, MaxIterations: maxIterations}
}

// campaign generates the workload's solves from the seed. The set of
// solves — the bias points, the six execution variants — is the
// workload's definition and is the same for every seed; the seed decides
// the order they run in. Every solve starts on a fresh Simulation, so
// the order changes what runs next to what, not how much work there is.
func (w workload) campaign(seed uint64, quick bool) []solveJob {
	jobs := w.jobs(quick)
	rng := rand.New(rand.NewPCG(seed, 0xca3))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// jobs lists the workload's solves in their canonical order.
func (w workload) jobs(quick bool) []solveJob {
	base := w.baseConfig(quick)
	at := func(name string, edit func(*qt.RunConfig)) solveJob {
		rc := base
		edit(&rc)
		return solveJob{Name: name, Config: rc}
	}
	bias := func(v float64) solveJob {
		return at(fmt.Sprintf("seq/%.2f", v), func(rc *qt.RunConfig) { rc.Spec.Bias = v })
	}
	switch w.Name {
	case "iv_sse_bound":
		return []solveJob{bias(0.2), bias(0.3), bias(0.4)}
	case "iv_gf_bound":
		return []solveJob{bias(0.2), bias(0.4)}
	case "dist_schedules":
		p2 := func(name string, edit func(*qt.RunConfig)) solveJob {
			return at(name, func(rc *qt.RunConfig) {
				rc.Spec.Bias = 0.3
				rc.Ranks = 2
				edit(rc)
			})
		}
		return []solveJob{
			at("seq", func(rc *qt.RunConfig) { rc.Spec.Bias = 0.3 }),
			p2("p2/phases", func(rc *qt.RunConfig) {}),
			p2("p2/overlap", func(rc *qt.RunConfig) { rc.Schedule = "overlap" }),
			p2("p2/pipeline", func(rc *qt.RunConfig) { rc.Schedule = "pipeline"; rc.PipelineDepth = 2 }),
			p2("p2/mixed", func(rc *qt.RunConfig) {
				rc.Schedule = "pipeline"
				rc.PipelineDepth = 2
				rc.Precision = "mixed"
			}),
			p2("p2/auto", func(rc *qt.RunConfig) { rc.AutoPlan = true }),
		}
	}
	return nil
}

// tenants are the two closed-loop clients of qtd_tenants.
var tenants = []string{"t0", "t1"}

// script generates the qtd_tenants request script: 20 requests in three
// barrier-separated phases. Which requests exist, and everything that
// decides how much work they are — who is cold, who is warm-started and
// from which neighbour, who is answered from the cache — is fixed; the
// seed decides the order of the schedule variants, which runs meet which
// on the two slots, and which answers are asked for again.
//
//	A  t0 sweeps the sequential bias family 0.10…0.35 upwards, an I-V
//	   curve: the first point is cold, each later one is warm-started
//	   from the point before it (the family's most recent cache entry).
//	   t1 submits four P=2 runs at bias 0.30 in seeded order: phases,
//	   overlap and pipeline differ only in schedule (one result identity,
//	   three plans — three cache misses), the fourth is auto-planned and
//	   pays the plan probe at admission.
//	B  eight exact duplicates: six drawn (seeded) from the nine
//	   hand-planned answers of A and dealt alternately, then both tenants
//	   ask for the sweep's last point again — which also makes it the
//	   family's most recent entry whatever the draw was. The auto-planned
//	   run is never resubmitted: its plan is measured at admission, so a
//	   second probe may resolve to another plan and another cache key.
//	C  both tenants submit the same new bias-0.45 configuration at the
//	   same instant: in-flight twins, each warm-started from 0.35.
func (w workload) script(seed uint64, quick bool) []request {
	base := w.baseConfig(quick)
	rng := rand.New(rand.NewPCG(seed, 0x71d))
	var out, answers []request

	const last = "seq/0.35"
	for i := 0; i < 6; i++ {
		rc := base
		rc.Spec.Bias = 0.10 + 0.05*float64(i)
		out = append(out, request{Phase: 0, Tenant: tenants[0], Name: fmt.Sprintf("seq/%.2f", rc.Spec.Bias), Config: rc})
	}
	p2 := base
	p2.Spec.Bias = 0.30
	p2.Ranks = 2
	variants := []request{
		{Name: "p2/phases", Config: p2},
		{Name: "p2/overlap", Config: p2},
		{Name: "p2/pipeline", Config: p2},
		{Name: "p2/auto", Config: p2},
	}
	variants[1].Config.Schedule = "overlap"
	variants[2].Config.Schedule = "pipeline"
	variants[3].Config.AutoPlan = true
	rng.Shuffle(len(variants), func(i, j int) { variants[i], variants[j] = variants[j], variants[i] })
	for _, v := range variants {
		v.Phase, v.Tenant = 0, tenants[1]
		out = append(out, v)
	}
	for _, r := range out {
		if !r.Config.AutoPlan {
			answers = append(answers, r)
		}
	}

	for i, k := range rng.Perm(len(answers))[:6] {
		out = append(out, request{Phase: 1, Tenant: tenants[i%2], Name: "dup:" + answers[k].Name, Config: answers[k].Config})
	}
	for _, t := range tenants {
		for _, r := range answers {
			if r.Name == last {
				out = append(out, request{Phase: 1, Tenant: t, Name: "dup:" + last, Config: r.Config})
			}
		}
	}

	twin := base
	twin.Spec.Bias = 0.45
	for _, t := range tenants {
		out = append(out, request{Phase: 2, Tenant: t, Name: "twin", Config: twin})
	}
	return out
}
