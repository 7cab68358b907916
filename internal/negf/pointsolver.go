package negf

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bc"
	"repro/internal/blocktri"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rgf"
	"repro/internal/tensor"
)

// PointSolver bundles exactly the state a single Green's-function point
// solve needs — the device, the scattering self-energy inputs, the G≷/D≷
// output tensors, and a boundary-condition cache — decoupled from the
// Solver kit. The Solver embeds one covering the full (kz, E) and
// (qz, ω) grids; a rank of the window graph (internal/dist) owns its own
// instance and calls the same per-point solves on its shard of the grids.
type PointSolver struct {
	Dev *device.Device
	// BC is the run's boundary cache. Attach a process-level store to it
	// (BC.Store, before the first solve) to share decimations with other
	// solves; NewPointSolver leaves it nil.
	BC *bc.Cache
	// leadDigests memoizes the content digest of each lead this solver
	// has asked the store about, by (cache side, momentum index).
	digestMu    sync.Mutex
	leadDigests map[[2]int]bc.LeadDigest

	// Trace, when non-nil, records per-point BC and RGF spans; TraceRank
	// labels them with the owning rank (0 for the kit). The
	// nil default keeps the point solves allocation-free.
	Trace     *obs.Tracer
	TraceRank int
	trackSeq  atomic.Int64

	// Green's function tensors (outputs of the GF phase).
	GL, GG *tensor.Electron
	DL, DG *tensor.Phonon
	// Scattering self-energy tensors (outputs of the SSE phase, inputs to
	// the next GF phase).
	SigL, SigG *tensor.Electron
	PiL, PiG   *tensor.Phonon

	// scratch is the free list of solveScratch values, one per
	// concurrently running point solve: the linalg workspace, the reusable
	// RGF solution, and the assembly storage. Each checkout is owned by
	// exactly one worker goroutine for the duration of one point solve
	// (the per-worker ownership rule of linalg.Workspace), so the parallel
	// GF phase and the dist rank workers never share scratch. The list
	// keeps its entries for the solver's life — a sync.Pool would drop
	// them at every GC, and the solves after it would allocate them anew.
	scratchMu sync.Mutex
	scratch   []*solveScratch

	// anderson is the depth-1 accelerator's history (MixAnderson); nil
	// until the first accelerated mix.
	anderson *andersonState
}

// solveScratch is the reusable per-worker state of one point solve. After
// the first solve every field is warm: the workspace pool covers all RGF
// temporaries, the assemblies are overwritten in place, and the Solution
// slices are recycled — the steady-state point solve allocates nothing.
type solveScratch struct {
	ws   *linalg.Workspace
	sol  *rgf.Solution
	prob rgf.Problem
	// track is the trace lane of the worker owning this scratch: one
	// scratch is checked out per concurrently running point solve, so the
	// id (assigned once, ≥ 1) separates concurrent solves in the trace.
	track int

	// Electron assembly: A = (E+iη)·S − H − Σᴿ and the Σ≷ injections.
	elA            *blocktri.Matrix
	elSigL, elSigG []*linalg.Matrix
	// Phonon assembly: A = (ω+iη)²·I − Φ − Πᴿ and the Π≷ injections.
	phA            *blocktri.Matrix
	phSigL, phSigG []*linalg.Matrix
}

// getScratch checks a solveScratch out of the free list (allocating the
// first time a worker needs one); putScratch returns it.
func (ps *PointSolver) getScratch() *solveScratch {
	ps.scratchMu.Lock()
	defer ps.scratchMu.Unlock()
	if n := len(ps.scratch); n > 0 {
		sc := ps.scratch[n-1]
		ps.scratch = ps.scratch[:n-1]
		return sc
	}
	return &solveScratch{ws: linalg.NewWorkspace(), track: int(ps.trackSeq.Add(1))}
}

func (ps *PointSolver) putScratch(sc *solveScratch) {
	ps.scratchMu.Lock()
	ps.scratch = append(ps.scratch, sc)
	ps.scratchMu.Unlock()
}

// electron returns the reusable electron assembly for the given block
// sizes: the A matrix blocks are fully overwritten by the caller, the Σ≷
// injection blocks are returned zeroed — exactly the state fresh
// allocations would have.
func (sc *solveScratch) electron(sizes []int) (*blocktri.Matrix, []*linalg.Matrix, []*linalg.Matrix) {
	sc.elA, sc.elSigL, sc.elSigG = ensureAssembly(sc.elA, sc.elSigL, sc.elSigG, sizes)
	return sc.elA, sc.elSigL, sc.elSigG
}

// phonon is electron for the phonon assembly.
func (sc *solveScratch) phonon(sizes []int) (*blocktri.Matrix, []*linalg.Matrix, []*linalg.Matrix) {
	sc.phA, sc.phSigL, sc.phSigG = ensureAssembly(sc.phA, sc.phSigL, sc.phSigG, sizes)
	return sc.phA, sc.phSigL, sc.phSigG
}

func ensureAssembly(a *blocktri.Matrix, sigL, sigG []*linalg.Matrix, sizes []int) (*blocktri.Matrix, []*linalg.Matrix, []*linalg.Matrix) {
	if a != nil && slices.Equal(a.Sizes, sizes) {
		for i := range sigL {
			sigL[i].Zero()
			sigG[i].Zero()
		}
		return a, sigL, sigG
	}
	a = blocktri.New(sizes)
	sigL = make([]*linalg.Matrix, len(sizes))
	sigG = make([]*linalg.Matrix, len(sizes))
	for i, s := range sizes {
		sigL[i] = linalg.New(s, s)
		sigG[i] = linalg.New(s, s)
	}
	return a, sigL, sigG
}

// solveRGF runs the workspace-pooled RGF recursion on the scratch.
func (sc *solveScratch) solveRGF(a *blocktri.Matrix, sigL, sigG []*linalg.Matrix) (*rgf.Solution, error) {
	sc.prob.A, sc.prob.SigL, sc.prob.SigG = a, sigL, sigG
	sol, err := rgf.SolveInto(&sc.prob, sc.ws, sc.sol)
	if err != nil {
		return nil, err
	}
	sc.sol = sol
	return sol, nil
}

// NewPointSolver allocates full-shape zeroed tensors for dev and a fresh
// boundary-condition cache in the given mode.
func NewPointSolver(dev *device.Device, mode bc.Mode) *PointSolver {
	p := dev.P
	nbp1 := dev.MaxNb() + 1
	return &PointSolver{
		Dev:  dev,
		BC:   bc.NewCache(mode),
		GL:   tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb),
		GG:   tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb),
		DL:   tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D),
		DG:   tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D),
		SigL: tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb),
		SigG: tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb),
		PiL:  tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D),
		PiG:  tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, device.N3D),
	}
}

// AllPairs lists every electron (ik, ie) point in global order.
func AllPairs(p device.Params) [][2]int {
	out := make([][2]int, 0, p.Nkz*p.NE)
	for ik := 0; ik < p.Nkz; ik++ {
		for ie := 0; ie < p.NE; ie++ {
			out = append(out, [2]int{ik, ie})
		}
	}
	return out
}

// AllPhononPoints lists every phonon (iq, m) point, m ∈ [1, Nω], in
// global order.
func AllPhononPoints(p device.Params) [][2]int {
	out := make([][2]int, 0, p.Nqz()*p.Nomega)
	for iq := 0; iq < p.Nqz(); iq++ {
		for m := 1; m <= p.Nomega; m++ {
			out = append(out, [2]int{iq, m})
		}
	}
	return out
}

// ElectronCollisionSum accumulates the electron collision integral
// R_e = Σ w·E·Tr[Σ<·G> − Σ>·G<] over the listed (ik, ie) pairs. With all
// pairs it is the ElectronEnergyLoss observable; a distributed rank passes
// only its owned pairs and reduces the partials.
func (ps *PointSolver) ElectronCollisionSum(pairs [][2]int) float64 {
	p := ps.Dev.P
	we := p.DE / (2 * math.Pi) / float64(p.Nkz)
	var re float64
	bl := p.Norb * p.Norb
	for _, pr := range pairs {
		ik, ie := pr[0], pr[1]
		e := p.Energy(ie)
		for a := 0; a < p.Na; a++ {
			sl := ps.SigL.Block(ik, ie, a)
			sg := ps.SigG.Block(ik, ie, a)
			gl := ps.GL.Block(ik, ie, a)
			gg := ps.GG.Block(ik, ie, a)
			var tr complex128
			for x := 0; x < bl; x++ {
				r, c := x/p.Norb, x%p.Norb
				tr += sl[r*p.Norb+c]*gg[c*p.Norb+r] - sg[r*p.Norb+c]*gl[c*p.Norb+r]
			}
			re += we * e * real(tr)
		}
	}
	return re
}

// PhononCollisionSum accumulates the phonon collision integral
// R_ph = Σ w·ω·Tr[Π>·D< − Π<·D>] over the listed (iq, m) points. With all
// points it is the PhononEnergyGain observable.
func (ps *PointSolver) PhononCollisionSum(points [][2]int) float64 {
	p := ps.Dev.P
	wp := p.DE / (2 * math.Pi) / float64(p.Nqz())
	var rp float64
	const n3 = device.N3D
	for _, pt := range points {
		iq, m := pt[0], pt[1]
		om := p.Omega(m)
		for a := 0; a < p.Na; a++ {
			for slot := 0; slot <= len(ps.Dev.Neigh[a]); slot++ {
				// Pair Π_ab with D_ba: the transpose-partner block, which
				// for b = a is slot 0 (a is not its own neighbour, so
				// NeighbourSlot(a, a) is −1).
				b := ps.slotAtom(a, slot)
				back := 1 + ps.Dev.NeighbourSlot(b, a)
				dG := ps.DG.Block(iq, m-1, b, back)
				dL := ps.DL.Block(iq, m-1, b, back)
				pl := ps.PiL.Block(iq, m-1, a, slot)
				pg := ps.PiG.Block(iq, m-1, a, slot)
				var tr complex128
				for r := 0; r < n3; r++ {
					for c := 0; c < n3; c++ {
						tr += pg[r*n3+c]*dL[c*n3+r] - pl[r*n3+c]*dG[c*n3+r]
					}
				}
				// The ½ compensates the pair double-count of this trace
				// metric relative to the four-block D̃ displacement
				// combination entering Σ (each physical emission appears in
				// both Π_ab and the Π_aa l-sum).
				rp += 0.5 * wp * om * real(tr)
			}
		}
	}
	return rp
}
