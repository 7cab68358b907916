package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// designGuards is the repo's design rules as data: one step per rule, one
// row per check. A row names where it looks (scope) and what it looks for:
// names, resolved through go/types in the type-checked files and through
// each file's imports elsewhere (tests, other GOARCHes); the shape of named
// function bodies; the import graph go/build computes for the host; or, where
// the rule is about text, a regexp over lines. A row finds nothing by
// default; min and max turn it into a row that must find something. since
// names the commit that made the rule hold: the row fails on that commit's
// parent.
var designGuards = []guardStep{
	{"no tuning state outside the run", `A plan is (schedule, workers, depth) on the run's own options. The
deleted process-wide setters, the GEMM-blocking axis and the worker budget
that steered the deleted GEMM fan-out must not come back in product code;
tests and testdata may name them (the decode-compat fixtures for stored
"gemm_blocking" records). One level of parallelism: outer loops decide the
worker count and kernels never spawn. ReserveWorker survives only as the
no-op the frozen bench/ module calls, and comm and sdfg, which imported
linalg for nothing else, stay free of it.`, []guard{
		{name: "no process-wide setter or blocking axis", since: "624c625", in: prod("."),
			find: probes(id(`SetBlocking|SetWorkers|ChooseBlocking|gemm_blocking`), lit(`gemm_blocking`))},
		{name: "no worker budget", since: "161501d", in: prod("."),
			find: probes(id(`SetWorkerBudget|WorkerBudget$|tryAcquireWorkers|releaseWorkers|parallelThreshold|budgetFree`))},
		{name: "ReserveWorker only in the bench shim", since: "161501d", in: src(".").except("bench_shims.go"),
			find: probes(id(`ReserveWorker`))},
		{name: "comm and sdfg do not reach linalg", since: "161501d",
			graph: noPath([]string{"repro/internal/comm", "repro/internal/sdfg"}, "repro/internal/linalg")},
	}},
	{"a plan is a rule, not a probe", `An auto_plan request resolves in closed form (plan.Rule) where every other
knob is resolved: no calibration run, no boundary store and no candidate
search sit on the plan path. Calibrate and Predict stay as the cost model
the bench's plan rungs read.`, []guard{
		{name: "plan.go calls no calibration and holds no store", since: "79e4484", in: prod("internal/plan/plan.go"),
			find: probes(id(`calibrate$|Store`))},
		{name: "no candidate search", since: "79e4484", in: src("internal/plan"),
			find: probes(fn("", `^candidates`), id(`chooseWith`))},
	}},
	{"one arithmetic under every point solve", `The RGF is dense on every device: no routing policy, no second spelling
of a coupling product. The Table 7–8 sparse kernels live in cmd/paperbench.`, []guard{
		{name: "no sparsity routing", since: "d16a438", in: prod("."),
			find: probes(id(`Sparsity|couplingPolicy`))},
	}},
	{"internal is what a run executes", `Every internal/ package is in the deps of a product command (qtd, qtsim),
and every exported identifier of one has a reader outside its package and
cmd/paperbench (TestInternalExportsHaveReaders). Models and microbenchmarks
only cmd/paperbench prints are its own files with one spelling per kernel,
and internal/model keeps the closed forms a run evaluates, over device
alone. The deleted packages, their *Into twins, the chunked broadcast,
blocktri's nonzero counts and the helpers no run read must not come back;
bench/ is frozen and names qt.WithSSEKernel in a comment.`, []guard{
		{name: "every internal package is a product dependency", since: "6754d63",
			graph: reachedFrom("repro/cmd/qtd", "repro/cmd/qtsim")},
		{name: "no paper-only package or Into twin", since: "6754d63", in: src(".").andBench(),
			find: probes(id(`CSRMMInto|GEMMIInto|FromDenseInto|ToCSCInto|ChunkedBcast`),
				lit(`CSRMMInto|GEMMIInto|FromDenseInto|ToCSCInto|ChunkedBcast|repro/internal/(sparse|staging|stream)`))},
		{name: "no blocktri nonzero counts", since: "1ae2179", in: src(".").andBench(),
			find: probes(id(`NNZDense|NNZBlocks`))},
		{name: "no helper without a product reader", since: "da8f241", in: prod("."),
			find: probes(id(`TotalIterationFlops|DaCeCommVolumeMixed|SBSMMPadded|EncodeHalfUnnormalized|ExchangeDaCe|MustInverse|WithSSEKernel|Allgather`),
				lit(`TotalIterationFlops|DaCeCommVolumeMixed|SBSMMPadded|EncodeHalfUnnormalized|ExchangeDaCe|MustInverse|WithSSEKernel|Allgather`),
				ref("repro/internal/device", `^(Small|Large)$`))},
		{name: "no paper-scale projection in model", since: "da8f241", in: src(".").andBench(),
			find: probes(ref("repro/internal/model", `^(Table[0-9]+|Figure9|StrongScaling|WeakScaling|WorkedExample|OMENCommVolume|PaperTiling|PizDaint|Summit|Machine|Pflop|Eflop|TiB|GiB|RGFFlops|BCFlops|SSE(OMEN|DaCe)Flops)$`))},
		{name: "no allocating convenience", since: "da8f241", in: src(".").andBench(),
			find: probes(ref("repro/internal/linalg", `^(Mul|MatMul|MulInto|Factorize|Solve)$`), ref("repro/internal/rgf", `^Solve$`),
				ref("repro/internal/batch", `^(SBSMM|PaddedFlops|PadSize)$`), ref("repro/internal/report", `^Formats$`))},
		{name: "model imports device alone", since: "da8f241",
			graph: importsOnly("repro/internal/model", "repro/internal/device")},
	}},
	{"one configuration", `qt.RunConfig is the only way to set a knob: what the wire decodes, what
qtsim's flags fill and what Simulation.Config returns; NewFromConfig is the
one constructor and one resolve step judges it. The private twin and its
mappings, the resolved-plan marker, the label helpers, the field-writing
With* options, qt.New, the Sweep driver, the explicit-zero refusal and the
qtd warm-start switch must not come back. Below qt each decision has one
copy too: one window-graph node per grid point under every cache mode (no
Prepare*BC, no per-point boundary chain), the seven loop knobs declared
once in negf.Loop, which dist.Options embeds (and no dist.DefaultOptions),
and only dist.Options.Validate resolves a schedule.`, []guard{
		{name: "no config twin or label helper", since: "7c0d1d7", in: prod("."),
			find: probes(id(`planResolved|withResolvedPlan|defaultConfig$`), fn("RunConfig", `^Options$`), fn("", `^(kernelName|scheduleName)`))},
		{name: "no field-writing With option", since: "40731f3", in: prod("."),
			find: probes(fn("", `^With(Ranks|Schedule|PipelineDepth|AutoPlan|Precision|Kernel|MaxIterations|Tolerance|Mixing|BoundaryCache|Anderson|Tiles|Workers|ErrorProbe|Trace)$`))},
		{name: "no qt.New, Sweep or warm-start switch", since: "40731f3", in: prod("."),
			find: probes(ref("repro/internal/qt", `^(New|Sweep|SweepPoint)$`), id(`withSequential|NoWarmStart`), fn("", `^explicit`))},
		{name: "no per-point boundary chain", since: "26cfd63", in: prod("."),
			find: probes(id(`PrepareElectronBC|PreparePhononBC|prevBCEl|prevBCPh`))},
		{name: "no dist defaults", since: "26cfd63", in: prod("internal/dist"),
			find: probes(fn("", `^DefaultOptions$`))},
		{name: "dist.Options declares no loop knob", since: "26cfd63", in: prod("internal/dist/dist.go"),
			find: probes(field(`^(CacheMode|Store|Mixing|MaxIter|Tol|Progress|Tracer)$`))},
		{name: "plan switches on no schedule", since: "26cfd63", in: prod("internal/plan"),
			find: probes(code[*ast.SwitchStmt](`^switch (.+\.)?Schedule$`))},
	}},
	{"one self-consistent loop", `Every run executes the one window graph of internal/dist; a run without
ranks is its one-rank world. negf keeps only the per-iteration kit (New,
GFPhase, SSEPhase) the benchmark's in-situ loop and the kernel tables call.
The deleted sequential loop, its trace, qt's runner for it and the options
lowering that fed it must not come back.`, []guard{
		{name: "no Solver.Run", since: "507057d", in: prod("."),
			find: probes(fn("Solver", `^Run$`))},
		{name: "no sequential runner", since: "507057d", in: prod("."),
			find: probes(id(`runSequential|negfOptions`))},
		{name: "no solver trace", since: "507057d", in: prod("internal/negf"),
			find: probes(id(`IterTrace`))},
	}},
	{"the window graph states its data", `Every node of dist's window graph declares the containers it reads and
writes, and sdfg.Graph.Add derives the edges from them; hand-written deps
carry control only. The hand-kept release chain of mixed planes must not
come back, nor the graph validator that derived edges make redundant.`, []guard{
		{name: "no hand-kept release chain", since: "31df4b6", in: prod("internal/dist/window.go"),
			find: probes(id(`prevMix(Sig|Pi)`))},
		{name: "no graph validator", since: "31df4b6", in: prod("internal/sdfg"),
			find: probes(fn("Graph", `^validate`))},
	}},
	{"one address per atom block", `device.Site and device.PairBlock are the one statement of where an atom's
block and an atom pair's coupling sit in a block-tridiagonal operator; no
slab switch or offset re-derivation may come back beside them. qt's
ballistic limit is iteration 0 of the one loop, so qt calls no negf kit.`, []guard{
		{name: "no slab switch or offset re-derivation", since: "cf643a7", in: prod("internal/device", "internal/negf"),
			find: probes(code[*ast.BinaryExpr](`^sb == sa|\* rows\) \*`))},
		{name: "qt calls no negf kit", since: "cf643a7", in: prod("internal/qt"),
			find: probes(ref("repro/internal/negf", `^New$`), id(`GFPhase$`))},
	}},
	{"one reduction per iteration", `Per-rank numbers ride the sums the loop already runs, in words of their
own that the other ranks leave zero. The max-reduction, the gather and the
blocking probe node they replaced must not come back, so an iteration stays
4 Alltoallv and 1 Allreduce under every option.`, []guard{
		{name: "no max-reduction or gather", since: "e58ca9c", in: prod("internal"),
			find: probes(id(`AllreduceMax|maxInto`), fn("Comm", `^Gather$`))},
		{name: "no blocking probe node", since: "e58ca9c", in: prod("internal"),
			find: probes(id(`reduceProbe`), lit(`probe/qerr`))},
	}},
	{"one value, one constant", `A setting every caller sets one way is a constant, not a knob: a study
seeds members 1..N−1 from member 0 and runs them on linalg.ParallelFor,
reporting through OnMember alone; the Sancho–Rubio stopping rule is bc's
pair of constants; the negf kit takes a negf.Loop, with no wrapper type;
and the config hash is encoding/json's sorted-key form.`, []guard{
		{name: "Study has no worker, iteration or warm knob", since: "97e2fc0", in: prod("internal/ensemble"),
			find: probes(id(`^(Workers|OnIter|WarmStart)$`))},
		{name: "bc takes no stopping rule", since: "97e2fc0", in: src("internal/bc"),
			find: probes(id(`stoppingRule`), param(`^(SurfaceGFInto|NewLeadKey)$`, `tol`))},
		{name: "negf has no Options struct", since: "97e2fc0", in: src("internal/negf"),
			find: probes(code[*ast.TypeSpec](`^type Options struct`))},
		{name: "qt has no canonical writer", since: "97e2fc0", in: src("internal/qt"),
			find: probes(id(`writeCanonical`))},
	}},
	{"one path per record kind", `Runs and ensemble studies are two record kinds behind one set of HTTP
handlers over one generic registry table. The per-kind handlers, stream and
replay helpers, registry wrappers and the second query type must not come
back.`, []guard{
		{name: "no per-kind handler", since: "191e7ed", in: prod("internal/server"),
			find: probes(id(`^(handleGetStudy|handleCancelStudy|handleStudyStream|handleStudyReport|replayStudy|streamStudy)$`))},
		{name: "no per-kind registry accessor", since: "191e7ed", in: prod("internal/server"),
			find: probes(id(`^(studyQuery|getStudy|putStudy|newStudyID|listStudies)$`))},
	}},
	{"one study runner", `ensemble.Study.Run is the one study driver, and qtd runs it with its
submit path as the executor. The server's own member outcomes and
reduction, and its per-member goroutines with their WaitGroup, must not
come back to its study runner.`, []guard{
		{name: "no server-side reduction", since: "f9998d1", in: prod("internal/server"),
			find: probes(id(`memberOutcome`), ref("repro/internal/ensemble", `^Reduce`))},
		{name: "the study runner spawns nothing", since: "f9998d1", in: prod("internal/server/ensemble.go"),
			find: probes(ref("sync", `^WaitGroup$`), code[*ast.GoStmt](`^go \(func`))},
	}},
	{"one pool, one fold", `linalg.Pool is the one data-parallel loop: the SSE tile runs its atoms on
a pool it keeps, and batch and paperbench split a batch with
linalg.ForChunks. An all-reduction is folded in rank 0's Wait, so neither a
fold goroutine nor a channel to hand its result to the root may come back.`, []guard{
		{name: "sse and the nonblocking requests spawn nothing", since: "7c038dd", in: prod("internal/sse", "internal/comm/nonblocking.go"),
			find: probes(code[*ast.GoStmt](``))},
		{name: "no root channel", since: "7c038dd", in: prod("internal/comm"),
			find: probes(field(`^root$`), code[*ast.SelectorExpr](`\.root$`))},
		{name: "no private forChunks", since: "7c038dd", in: prod("internal/batch", "cmd/paperbench"),
			find: probes(fn("", `^forChunks`))},
	}},
	{"comm recycles payloads", `Every transfer is one write: comm.(*Comm).send hands the fill the row
taken from the receiving mailbox's free list for its (source, tag) and makes
no copy of its own; the SSE plan's Post* hand comm the segment writer
instead of packing into plan-owned rows first; and the window graph keeps
releasing what it unpacked: the four exchange waits and the observable
reduction's wait.`, []guard{
		{name: "send takes the receiver's row", since: "b6e493b", in: prod("internal/comm/comm.go").body("Comm", `^send$`),
			find: probes(code[*ast.CallExpr](`^box\.take\(`)), min: 1, max: many},
		{name: "send fills the receiver's row", since: "62ab542", in: prod("internal/comm/comm.go").body("Comm", `^send$`),
			find: probes(code[*ast.CallExpr](`^fill\(box\.take\(`)), min: 1, max: many},
		{name: "send makes no copy", since: "b6e493b", in: prod("internal/comm/comm.go").body("Comm", `^send$`),
			find: probes(code[*ast.CallExpr](`^append\(\[\]complex128|^make\(`))},
		{name: "Post posts through the segment writer", since: "62ab542", in: prod("internal/decomp/dace_plan.go").body("DaCePlan", `^Post`),
			find: probes(code[*ast.CallExpr](`^pl\.post\(`)), min: 4, max: 4},
		{name: "DaCePlan has its four Post methods", since: "62ab542", in: prod("internal/decomp/dace_plan.go"),
			find: probes(fn("DaCePlan", `^Post(G|D|Sigma|Pi)$`)), min: 4, max: 4},
		{name: "Post packs nothing", since: "62ab542", in: prod("internal/decomp/dace_plan.go").body("DaCePlan", `^Post`),
			find: probes(id(`Pack`))},
		{name: "the four exchange waits release", since: "b6e493b", in: prod("internal/dist/window.go"),
			find: probes(code[*ast.CallExpr](`^st\.req(G|D|Sig|Pi)\.Release\(\)$`)), min: 4, max: 4},
		{name: "the observable wait releases", since: "62ab542", in: prod("internal/dist/window.go"),
			find: probes(code[*ast.CallExpr](`^st\.reqObs\.Release\(\)$`)), min: 1, max: many},
	}},
	{"one compile per run", `A run builds its window graph, tile plans, point results and Anderson
history once and re-arms them every iteration; the per-iteration builders
they replaced must not come back, and per-iteration storage has an owner
(run → slot → worker), never a sync.Pool, which a GC empties. A point
solve's scratch is its worker's: the mutex-guarded free list, its checkout
pair and its lane counter must not come back. sdfg keeps only what a run
reads: no steal counter in the trace and no rank field on a node.`, []guard{
		{name: "no per-iteration builder", since: "4048890", in: prod("internal"),
			find: probes(id(`daceCompute|unpackObs|iterRun|concatViews?$`))},
		{name: "no sync.Pool on the loop", since: "4048890", in: prod("internal/negf", "internal/sse", "internal/decomp", "internal/dist", "internal/sdfg"),
			find: probes(ref("sync", `^Pool`))},
		{name: "no scratch free list", since: "3b7d8e4", in: src("internal/negf"),
			find: probes(id(`getScratch|putScratch|trackSeq|scratchMu`))},
		{name: "no steal counter", since: "3b7d8e4", in: prod("internal/sdfg"),
			find: probes(id(`^Steals$`))},
		{name: "no rank field", since: "3b7d8e4", in: prod("internal/sdfg"),
			find: probes(field(`^Rank$`))},
	}},
	{"one clock per window", `The executor's span record is the only timing of a window-graph node. The
per-node observer and dist's own per-node timers and window clocks must not
come back, and dist reads no clock at all.`, []guard{
		{name: "no per-node observer", since: "c609ec7", in: prod("internal/sdfg"),
			find: probes(id(`Observer`))},
		{name: "no dist timers", since: "c609ec7", in: prod("internal/dist"),
			find: probes(id(`compNs|commNs|winStart|lastConv`))},
		{name: "dist reads no clock", since: "c609ec7", in: prod("internal/dist"),
			find: probes(ref("time", `^(Now|Since)$`))},
	}},
	{"one driver per artifact", `cmd/paperbench is the only program that regenerates a table or figure. The
report encoders the deleted drivers printed through must not come back, and
report renders runs and ensembles without knowing the distributed solver or
the model.`, []guard{
		{name: "no scaling encoder", since: "b1f034b", in: prod(".").andBench(),
			find: probes(ref("repro/internal/report", `^(Scaling|PerIter|ScaleRow|OverlapRow)`))},
		{name: "report imports neither dist nor model", since: "b1f034b",
			graph: noImport("repro/internal/report", "repro/internal/dist", "repro/internal/model")},
	}},
	{"one small-block kernel", `Every SBSMM runs through linalg.SmallBatch, and every GEMM whose op(B) fits
its SIMD level's rowPanelMaxKN through the same row-panel kernel. The
per-package triple loop, its single-goroutine twin, the unread Gᴿ_{i+1,i}
block and the unpacked stripe GEMM with its m·n·k cut (now only the tests'
bitwise oracle) must not come back.`, []guard{
		{name: "no second small-block kernel", since: "562c226", in: prod(".").andBench(),
			find: probes(id(`GRLower|SBSMMSeq|mulAddSmall$`), lit(`GRLower|SBSMMSeq`))},
		{name: "no stripe GEMM", since: "09cc20c", in: prod(".").andBench(),
			find: probes(id(`gemmStripe|packThreshold`))},
	}},
	{"one pass per stencil source row", `Stage ❷ of the SSE tile runs each E∓ω term for the three directions of
both ≷ rows in one linalg.VecAddMul3x2 call; the four VecAddMul calls per
direction on the vL/vG rows must not come back.`, []guard{
		{name: "no per-direction VecAddMul", since: "c050aed", in: prod("internal/sse/dace.go"),
			find: probes(code[*ast.CallExpr](`VecAddMul\((s\.)?v[lgLG]\b`))},
		{name: "stage two runs VecAddMul3x2", since: "c050aed", in: prod("internal/sse/dace.go"),
			find: probes(code[*ast.CallExpr](`^linalg\.VecAddMul3x2\(`)), min: 1, max: many},
	}},
	{"one dispatch, chosen by the CPU", `The SIMD level of the linalg kernels is read from CPUID and XCR0 at init
and from nothing else: no environment variable, flag or build tag picks or
forbids a kernel body. No kernel names BP: it is the frame pointer, and go
vet's framepointer check misses a write to it mid-function.`, []guard{
		{name: "linalg reads no environment or flag", since: "1ae2179", in: prod("internal/linalg"),
			find: probes(ref("os", `^Getenv$`), ref("flag", ``))},
		{name: "no SIMD build tag", since: "1ae2179", in: src(".").andBench().of(".go", ".s"),
			text: `^//go:build.*(avx|AVX)`},
		{name: "no kernel names BP", since: "218bb51", in: prod("internal/linalg").of(".s"),
			text: `\bBP\b`},
	}},
	{"one binary16 rounding", `internal/half rounds to binary16 in one place, round: to nearest, ties
to even, in the float32 domain, for normals, subnormals, underflow,
overflow and NaN alike; Quantize, EncodeScaled and the wire codec round
through it, and packing into and unpacking from a Float16 are exact. The
one-case-per-class conversions kept beside the bit paths, and Quantize's
private copy of the rounding, must not come back. One scale rule too: the
wire codec's factor and fallback verdict are ScaleFor of MaxAbsComplex,
the rule sse.Mixed normalizes by.`, []guard{
		{name: "no slow conversion", in: src("internal/half"),
			find: probes(id(`Slow$`))},
		{name: "Quantize does no arithmetic of its own", in: prod("internal/half/half.go").body("", `^Quantize$`),
			find: probes(code[*ast.BinaryExpr](``))},
		{name: "no private scale rule", in: prod("internal/half", "internal/sse"),
			find: probes(fn("", `^(wireScale|segmentScale|maxAbs2)$`))},
	}},
	{"one name per precision", `decomp.Precision, decomp.FP64 and decomp.Mixed are a precision's only
names: dist and qt declare no alias of them. qt keeps its schedule names,
which report reads without importing dist.`, []guard{
		{name: "no precision alias", in: src("internal/dist", "internal/qt"),
			find: probes(code[*ast.TypeSpec](`^type Precision `), code[*ast.ValueSpec](`^(PrecisionFP64|PrecisionMixed|FP64|Mixed)\b`))},
	}},
	{"ragged phonon tensors", `A phonon tensor stores each atom's 1+nb_a neighbour slots and nothing
more: its layout is the device's SlotOff, shared by every D≷/Π≷ tensor,
shard plane and exchange segment. The padded neighbour axis of MaxNb+1
slots per atom must not come back.`, []guard{
		{name: "no NbP1", in: src("internal"),
			find: probes(id(`(?i)^nbp1$`))},
	}},
	{"device pairs are slot-indexed", `Every per-pair quantity of device.Device (hopping, force constants, ∇H)
sits in a flat table over SlotOff, the slot layout the phonon tensors
share, and the reverse pair's slot is a lookup in one mirror table. The
pair-keyed maps, their key types and the per-atom slot maps must not come
back, in device or in the kernels that read it.`, []guard{
		{name: "no pair key or slot map", in: src("internal"),
			find: probes(id(`^(nbSlot|pairDir|orderedPair|gradKey)$`))},
		{name: "no map-typed field on device.Device", in: prod("internal/device/structure.go"),
			find: probes(code[*ast.TypeSpec](`^type Device struct\{.*\bmap\[`))},
	}},
	{"guards are rows", `A design rule is a row of this table, which tier-1 runs, not a shell step
of CI's: a "! cmd" line does not stop a bash -e script, and a grep of a
renamed file passes silently.`, []guard{
		{name: "CI holds no negated grep", in: prod(".github/workflows/ci.yml"),
			text: `^\s*! +(grep|go list|printf .*\|\s*grep)\b`},
	}},
}

type guardStep struct {
	name, why string
	rows      []guard
}

type guard struct {
	name     string
	since    string // the commit that made the rule hold
	in       scope
	find     []probe // Go constructs in in's files
	text     string  // or a regexp over the lines of in's files
	min, max int     // how many findings the row allows: none by default; max many for no bound
	graph    func(g modGraph) (bad, missing []string)
}

const many = math.MaxInt

// TestDesignGuards runs every row of designGuards; a row fails on a number
// of findings outside its bounds, on a file it cannot read or parse, and on
// naming nothing: a file, directory, package, function or receiver type
// that does not exist.
func TestDesignGuards(t *testing.T) {
	s := newSources(loadModule(t))
	for _, st := range designGuards {
		for _, g := range st.rows {
			t.Run(st.name+": "+g.name, func(t *testing.T) {
				found, missing, err := g.run(s)
				if err != nil {
					t.Fatalf("row %q: %v", g.name, err)
				}
				for _, m := range missing {
					t.Errorf("row %q names nothing: %s", g.name, m)
				}
				if n := len(found); len(missing) == 0 && (n < g.min || n > g.max) {
					t.Errorf("%s: found %d, want %s\n\t%s\nwhy: %s", g.name, n, g.want(), strings.Join(found, "\n\t"), st.why)
				}
			})
		}
	}
}

func (g guard) want() string {
	switch {
	case g.max == 0:
		return "none"
	case g.max == many:
		return fmt.Sprintf("at least %d", g.min)
	case g.min == g.max:
		return fmt.Sprint(g.min)
	}
	return fmt.Sprintf("%d to %d", g.min, g.max)
}

// run returns the row's findings as "file:line: text" and what it names
// that does not exist.
func (g guard) run(s *sources) (found, missing []string, err error) {
	if g.graph != nil {
		found, missing = g.graph(s.graph)
		return found, missing, nil
	}
	files, missing, err := g.in.files(s)
	if err != nil {
		return nil, nil, err
	}
	if g.text != "" {
		re := regexp.MustCompile(g.text)
		for _, f := range files {
			b, err := os.ReadFile(filepath.FromSlash(f.path))
			if err != nil {
				return nil, nil, err
			}
			for i, line := range strings.Split(string(b), "\n") {
				if re.MatchString(line) {
					found = append(found, fmt.Sprintf("%s:%d: %s", f.path, i+1, strings.TrimSpace(line)))
				}
			}
		}
		return found, missing, nil
	}
	type root struct {
		f *srcFile
		n ast.Node
	}
	var roots []root
	for _, f := range files {
		if f.ast == nil {
			continue
		}
		if g.in.fn == "" {
			roots = append(roots, root{f, f.ast})
			continue
		}
		re := regexp.MustCompile(g.in.fn)
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && recvName(fd) == g.in.recv && re.MatchString(fd.Name.Name) {
				roots = append(roots, root{f, fd})
			}
		}
	}
	if g.in.fn != "" && len(roots) == 0 && len(files) > 0 {
		missing = append(missing, "no func "+recvPrefix(g.in.recv)+g.in.fn)
	}
	for _, p := range g.find {
		if p.names != nil {
			if m := p.names(s, files); m != "" {
				missing = append(missing, m)
			}
		}
	}
	for _, r := range roots {
		ast.Inspect(r.n, func(n ast.Node) bool {
			for _, p := range g.find {
				p.match(r.f, n, func(at ast.Node, text string) {
					found = append(found, fmt.Sprintf("%s:%d: %s", r.f.path, s.fset.Position(at.Pos()).Line, text))
				})
			}
			return true
		})
	}
	return found, missing, nil
}

// scope is the set of files a row reads.
type scope struct {
	paths    []string // files, or directories walked recursively (testdata and hidden ones, and this table, left out)
	exts     []string // file kinds walked in directories; .go by default
	tests    bool     // _test.go files too
	bench    bool     // the bench/ module too
	skip     string   // a file name left out
	recv, fn string   // only the declarations of fn (a regexp) on receiver type recv ("" for functions)
}

// prod is the product code under paths: no _test.go files, no bench/.
func prod(paths ...string) scope { return scope{paths: paths} }

// src is every Go file under paths but bench/'s.
func src(paths ...string) scope { return scope{paths: paths, tests: true} }

func (c scope) andBench() scope            { c.bench = true; return c }
func (c scope) except(name string) scope   { c.skip = name; return c }
func (c scope) of(exts ...string) scope    { c.exts = exts; return c }
func (c scope) body(recv, fn string) scope { c.recv, c.fn = recv, fn; return c }

// files lists the scope's files, each Go one parsed; a path that does not
// exist or holds no file is missing.
func (c scope) files(s *sources) (files []*srcFile, missing []string, err error) {
	exts := c.exts
	if exts == nil {
		exts = []string{".go"}
	}
	for _, p := range c.paths {
		n := len(files)
		info, err := os.Stat(filepath.FromSlash(p))
		if err != nil {
			missing = append(missing, p+" does not exist")
			continue
		}
		if !info.IsDir() {
			f, err := s.file(p)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
			continue
		}
		err = filepath.WalkDir(filepath.FromSlash(p), func(fp string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if fp != filepath.FromSlash(p) && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench" && !c.bench) {
					return filepath.SkipDir
				}
				return nil
			}
			if name == c.skip || fp == "guards_test.go" || strings.HasSuffix(name, "_test.go") && !c.tests || !slices.Contains(exts, filepath.Ext(name)) {
				return nil
			}
			f, err := s.file(filepath.ToSlash(fp))
			if err != nil {
				return err
			}
			files = append(files, f)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		if len(files) == n {
			missing = append(missing, "no file in "+p)
		}
	}
	return files, missing, nil
}

// sources is the module's files, each parsed once.
type sources struct {
	fset  *token.FileSet
	l     *srcLoader
	files map[string]*srcFile
	graph modGraph
}

type srcFile struct {
	path string
	ast  *ast.File // nil for a file that is not Go
	info *types.Info
	imps map[string]string // local name → import path, for files without info
}

func newSources(l *srcLoader) *sources {
	s := &sources{fset: l.fset, l: l, files: map[string]*srcFile{}, graph: modGraph{}}
	for path, p := range l.pkgs {
		s.graph[path] = p.imports
		for _, f := range p.files {
			sf := &srcFile{path: filepath.ToSlash(l.fset.Position(f.Package).Filename), ast: f, info: p.info}
			s.files[sf.path] = sf
		}
	}
	return s
}

// file returns the file at path, parsing it if it is Go and the module
// load did not type-check it (a test, a file for another GOARCH).
func (s *sources) file(rel string) (*srcFile, error) {
	if f, ok := s.files[rel]; ok {
		return f, nil
	}
	f := &srcFile{path: rel}
	if strings.HasSuffix(rel, ".go") {
		a, err := parser.ParseFile(s.fset, filepath.FromSlash(rel), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		f.ast, f.imps = a, map[string]string{}
		for _, is := range a.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			name := path.Base(ip)
			if is.Name != nil {
				name = is.Name.Name
			}
			f.imps[name] = ip
		}
	}
	s.files[rel] = f
	return f, nil
}

// pkgOf resolves x, the left of a selector, to the import path of the
// package it names, or "".
func (f *srcFile) pkgOf(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if f.info != nil {
		if pn, ok := f.info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return ""
	}
	return f.imps[id.Name]
}

// probe is one kind of Go construct a row looks for. match reports each
// construct n holds; names, when set, says what the probe names that the
// row's files or the module lack ("" when everything exists).
type probe struct {
	match func(f *srcFile, n ast.Node, emit func(at ast.Node, text string))
	names func(s *sources, files []*srcFile) string
}

func probes(p ...probe) []probe { return p }

// id finds identifiers whose name matches re: declared or used, fields,
// methods and labels.
func id(re string) probe {
	r := regexp.MustCompile(re)
	return probe{match: func(_ *srcFile, n ast.Node, emit func(ast.Node, string)) {
		if x, ok := n.(*ast.Ident); ok && r.MatchString(x.Name) {
			emit(x, x.Name)
		}
	}}
}

// lit finds string literals whose value matches re: struct tags and import
// paths included.
func lit(re string) probe {
	r := regexp.MustCompile(re)
	return probe{match: func(_ *srcFile, n ast.Node, emit func(ast.Node, string)) {
		if x, ok := n.(*ast.BasicLit); ok && x.Kind == token.STRING {
			if v, err := strconv.Unquote(x.Value); err == nil && r.MatchString(v) {
				emit(x, x.Value)
			}
		}
	}}
}

// ref finds qualified identifiers pkg.Name whose Name matches re. The
// package must exist.
func ref(pkg, re string) probe {
	r := regexp.MustCompile(re)
	return probe{
		match: func(f *srcFile, n ast.Node, emit func(ast.Node, string)) {
			if x, ok := n.(*ast.SelectorExpr); ok && r.MatchString(x.Sel.Name) && f.pkgOf(x.X) == pkg {
				emit(x, types.ExprString(x))
			}
		},
		names: func(s *sources, _ []*srcFile) string {
			if _, ok := s.l.pkgs[pkg]; ok {
				return ""
			}
			if _, err := s.l.std.Import(pkg); err == nil && !strings.HasPrefix(pkg, "repro") {
				return ""
			}
			return "package " + pkg
		},
	}
}

// field finds struct fields whose name matches re.
func field(re string) probe {
	r := regexp.MustCompile(re)
	return probe{match: func(_ *srcFile, n ast.Node, emit func(ast.Node, string)) {
		if x, ok := n.(*ast.StructType); ok {
			for _, fl := range x.Fields.List {
				for _, nm := range fl.Names {
					if r.MatchString(nm.Name) {
						emit(nm, nm.Name+" "+types.ExprString(fl.Type))
					}
				}
			}
		}
	}}
}

// fn finds declarations of functions (recv "") or of methods on the named
// receiver type whose name matches re. The receiver type must be declared
// in the row's files.
func fn(recv, re string) probe {
	r := regexp.MustCompile(re)
	p := probe{match: func(_ *srcFile, n ast.Node, emit func(ast.Node, string)) {
		if x, ok := n.(*ast.FuncDecl); ok && recvName(x) == recv && r.MatchString(x.Name.Name) {
			emit(x, "func "+recvPrefix(recv)+x.Name.Name)
		}
	}}
	if recv != "" {
		p.names = func(_ *sources, files []*srcFile) string {
			for _, f := range files {
				for _, d := range f.ast.Decls {
					if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
						for _, sp := range gd.Specs {
							if sp.(*ast.TypeSpec).Name.Name == recv {
								return ""
							}
						}
					}
				}
			}
			return "type " + recv
		}
	}
	return p
}

// param finds declared functions named like fnRe with a parameter named
// like paramRe. Some function must be named like fnRe.
func param(fnRe, paramRe string) probe {
	rf, rp := regexp.MustCompile(fnRe), regexp.MustCompile(paramRe)
	return probe{
		match: func(_ *srcFile, n ast.Node, emit func(ast.Node, string)) {
			if x, ok := n.(*ast.FuncDecl); ok && rf.MatchString(x.Name.Name) {
				for _, fl := range x.Type.Params.List {
					for _, nm := range fl.Names {
						if rp.MatchString(nm.Name) {
							emit(x, "func "+x.Name.Name+"(…"+nm.Name+"…)")
						}
					}
				}
			}
		},
		names: func(_ *sources, files []*srcFile) string {
			for _, f := range files {
				for _, d := range f.ast.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && rf.MatchString(fd.Name.Name) {
						return ""
					}
				}
			}
			return "func " + fnRe
		},
	}
}

// code finds the nodes of type T whose source form matches re.
func code[T ast.Node](re string) probe {
	r := regexp.MustCompile(re)
	return probe{match: func(_ *srcFile, n ast.Node, emit func(ast.Node, string)) {
		if x, ok := n.(T); ok {
			if s := form(x); r.MatchString(s) {
				emit(x, s)
			}
		}
	}}
}

// form is the source form of an expression as types.ExprString writes it (a
// func literal reads "(func() literal)"); a go statement, a switch and a type
// declaration read as their keyword followed by the form of their call, tag
// or type, and a const or var spec as its names.
func form(n ast.Node) string {
	switch x := n.(type) {
	case ast.Expr:
		return types.ExprString(x)
	case *ast.GoStmt:
		return "go " + types.ExprString(x.Call)
	case *ast.SwitchStmt:
		if x.Tag == nil {
			return "switch"
		}
		return "switch " + types.ExprString(x.Tag)
	case *ast.TypeSpec:
		return "type " + x.Name.Name + " " + types.ExprString(x.Type)
	case *ast.ValueSpec:
		names := make([]string, len(x.Names))
		for i, nm := range x.Names {
			names[i] = nm.Name
		}
		return strings.Join(names, ", ")
	}
	panic(fmt.Sprintf("no source form for %T", n))
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func recvPrefix(recv string) string {
	if recv == "" {
		return ""
	}
	return "(" + recv + ")."
}

// modGraph is the import graph of the module's packages as go/build lists
// it for the host: import path → direct imports.
type modGraph map[string][]string

func (g modGraph) deps(roots ...string) map[string]bool {
	seen := map[string]bool{}
	var walk func(p string)
	walk = func(p string) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, q := range g[p] {
			walk(q)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}

func (g modGraph) lack(pkgs ...string) (missing []string) {
	for _, p := range pkgs {
		if _, ok := g[p]; !ok {
			missing = append(missing, "package "+p)
		}
	}
	return missing
}

// reachedFrom: every internal/ package is a dependency of one of roots.
func reachedFrom(roots ...string) func(modGraph) ([]string, []string) {
	return func(g modGraph) (bad, missing []string) {
		deps := g.deps(roots...)
		for p := range g {
			if strings.HasPrefix(p, "repro/internal/") && !deps[p] {
				bad = append(bad, p+" is in the deps of none of "+strings.Join(roots, ", "))
			}
		}
		sort.Strings(bad)
		return bad, g.lack(roots...)
	}
}

// noPath: no package of from depends on to, directly or not.
func noPath(from []string, to string) func(modGraph) ([]string, []string) {
	return func(g modGraph) (bad, missing []string) {
		for _, p := range from {
			if g.deps(p)[to] {
				bad = append(bad, p+" depends on "+to)
			}
		}
		return bad, g.lack(append(from, to)...)
	}
}

// importsOnly: pkg imports exactly imps, the standard library included.
func importsOnly(pkg string, imps ...string) func(modGraph) ([]string, []string) {
	return func(g modGraph) (bad, missing []string) {
		if got := strings.Join(g[pkg], " "); got != strings.Join(imps, " ") {
			bad = append(bad, pkg+" imports "+got+", want "+strings.Join(imps, " "))
		}
		return bad, g.lack(append([]string{pkg}, imps...)...)
	}
}

// noImport: pkg imports none of imps directly.
func noImport(pkg string, imps ...string) func(modGraph) ([]string, []string) {
	return func(g modGraph) (bad, missing []string) {
		for _, q := range g[pkg] {
			for _, i := range imps {
				if q == i {
					bad = append(bad, pkg+" imports "+q)
				}
			}
		}
		return bad, g.lack(append([]string{pkg}, imps...)...)
	}
}
