package negf

import (
	"math"
	"slices"
	"sync"

	"repro/internal/bc"
	"repro/internal/blocktri"
	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rgf"
	"repro/internal/sse"
	"repro/internal/tensor"
)

// PointSolver bundles exactly the state a single Green's-function point
// solve needs — the device, the scattering self-energy inputs, the G≷/D≷
// output tensors, and a boundary-condition cache — decoupled from the
// Solver kit. The Solver embeds one covering the full (kz, E) and
// (qz, ω) grids; a rank of the window graph (internal/dist) owns its own
// instance and calls the same per-point solves on its shard of the grids,
// holding the scattering self-energies of that shard only.
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

	// Trace, when non-nil, records per-point BC and RGF spans on lane
	// w+1 of the solving worker w; TraceRank labels them with the owning
	// rank (0 for the kit). The nil default keeps the point solves
	// allocation-free.
	Trace     *obs.Tracer
	TraceRank int

	// Green's function tensors (outputs of the GF phase), full-grid: the
	// SSE tile reads the halo planes other ranks send into them.
	GL, GG *tensor.Electron
	DL, DG *tensor.Phonon

	// shard lists the points the solver owns; nil for NewPointSolver's,
	// which owns the whole grid in global order. sig and pi are the
	// scattering self-energies (outputs of the SSE phase, inputs to the
	// next GF phase) of exactly those points: plane i of sig is Σ≷ of
	// pair i, plane j of pi is Π≷ of point j.
	shard   *Shard
	sig, pi planes
	// SigL, SigG, PiL and PiG view sig and pi as full-grid tensors when
	// the solver owns the whole grid in global order (the kit, a one-rank
	// run); on a rank that owns a part of the grid they are nil.
	SigL, SigG *tensor.Electron
	PiL, PiG   *tensor.Phonon

	// scratch[w] is worker w's solveScratch — the linalg workspace, the
	// reusable RGF solution and the assembly storage — sized to the pool
	// that runs the solves and allocated by its worker on first use. Only
	// worker w touches entry w (the per-worker ownership rule of
	// linalg.Workspace), so the solves need no lock, and the entries live
	// as long as the solver.
	scratch []*solveScratch

	// anderson is the depth-1 accelerator's history (MixAnderson); nil
	// until the first accelerated mix.
	anderson *andersonState
}

// solveScratch is one worker's reusable point-solve state. After its
// first solve every field is warm: the workspace pool covers all RGF
// temporaries, the assemblies are overwritten in place, and the Solution
// slices are recycled — the steady-state point solve allocates nothing.
type solveScratch struct {
	ws   *linalg.Workspace
	sol  *rgf.Solution
	prob rgf.Problem
	// track is the trace lane of the owning worker w: w+1, so concurrent
	// solves land on separate lanes.
	track int

	// Electron assembly: A = (E+iη)·S − H − Σᴿ and the Σ≷ injections.
	elA            *blocktri.Matrix
	elSigL, elSigG []*linalg.Matrix
	// Phonon assembly: A = (ω+iη)²·I − Φ − Πᴿ and the Π≷ injections.
	phA            *blocktri.Matrix
	phSigL, phSigG []*linalg.Matrix
}

// worker returns worker w's scratch, allocating it on w's first solve.
func (ps *PointSolver) worker(w int) *solveScratch {
	sc := ps.scratch[w]
	if sc == nil {
		sc = &solveScratch{ws: linalg.NewWorkspace(), track: w + 1}
		ps.scratch[w] = sc
	}
	return sc
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

// planes is the Σ≷ or Π≷ state of a shard: plane k of l and g belongs
// to the shard's k-th point and holds the blocks of every atom, its slots
// in order (an electron atom has one block, a phonon atom one per slot),
// laid out as a full-grid tensor's plane.
type planes struct {
	l, g        []complex128
	n, atom, bl int // values per plane, per atom and per block
}

func newPlanes(count, na, slots, bl int) planes {
	n := na * slots * bl
	return planes{l: make([]complex128, count*n), g: make([]complex128, count*n), n: n, atom: slots * bl, bl: bl}
}

// plane returns the lesser and greater plane k.
func (s planes) plane(k int) (l, g []complex128) {
	o := k * s.n
	return s.l[o : o+s.n], s.g[o : o+s.n]
}

// block returns the lesser and greater block of atom a, slot slot, in
// plane k.
func (s planes) block(k, a, slot int) (l, g []complex128) {
	o := k*s.n + a*s.atom + slot*s.bl
	return s.l[o : o+s.bl], s.g[o : o+s.bl]
}

// NewPointSolver allocates zeroed tensors over the whole grid of dev, a fresh
// boundary-condition cache in the given mode and one worker's scratch,
// which SolveElectronPoint and SolvePhononPoint run on: they must not be
// called concurrently.
func NewPointSolver(dev *device.Device, mode bc.Mode) *PointSolver {
	p := dev.P
	return newPointSolver(dev, mode, p.Nkz*p.NE, p.Nqz()*p.Nomega, true)
}

// newPointSolver allocates the solver of pairs electron and points phonon
// points, with full-grid tensor views of its state when whole says they
// are the whole grid in global order.
func newPointSolver(dev *device.Device, mode bc.Mode, pairs, points int, whole bool) *PointSolver {
	p := dev.P
	nbp1 := dev.MaxNb() + 1
	const n3 = device.N3D
	ps := &PointSolver{
		Dev:     dev,
		BC:      bc.NewCache(mode),
		scratch: make([]*solveScratch, 1),
		GL:      tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb),
		GG:      tensor.NewElectron(p.Nkz, p.NE, p.Na, p.Norb),
		DL:      tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, n3),
		DG:      tensor.NewPhonon(p.Nqz(), p.Nomega, p.Na, nbp1, n3),
		sig:     newPlanes(pairs, p.Na, 1, p.Norb*p.Norb),
		pi:      newPlanes(points, p.Na, nbp1, n3*n3),
	}
	if whole {
		ps.SigL = &tensor.Electron{Nkz: p.Nkz, NE: p.NE, Na: p.Na, Norb: p.Norb, Data: ps.sig.l}
		ps.SigG = &tensor.Electron{Nkz: p.Nkz, NE: p.NE, Na: p.Na, Norb: p.Norb, Data: ps.sig.g}
		ps.PiL = &tensor.Phonon{Nqz: p.Nqz(), Nw: p.Nomega, Na: p.Na, NbP1: nbp1, N3D: n3, Data: ps.pi.l}
		ps.PiG = &tensor.Phonon{Nqz: p.Nqz(), Nw: p.Nomega, Na: p.Na, NbP1: nbp1, N3D: n3, Data: ps.pi.g}
	}
	return ps
}

// MixSigma blends out's Σ≷ of the shard's pair i into the solver's state
// through tensor.MixSlice — the blend the kit's SSEPhase applies
// tensor-wide.
func (ps *PointSolver) MixSigma(i int, out *sse.Output, mixing float64) {
	ik, ie := ps.shard.Pairs[i][0], ps.shard.Pairs[i][1]
	l, g := ps.sig.plane(i)
	tensor.MixSlice(l, out.SigL.Plane(ik, ie), mixing)
	tensor.MixSlice(g, out.SigG.Plane(ik, ie), mixing)
}

// MixPi is MixSigma for the Π≷ of the shard's phonon point j.
func (ps *PointSolver) MixPi(j int, out *sse.Output, mixing float64) {
	iq, m := ps.shard.Points[j][0], ps.shard.Points[j][1]
	l, g := ps.pi.plane(j)
	tensor.MixSlice(l, out.PiL.Plane(iq, m-1), mixing)
	tensor.MixSlice(g, out.PiG.Plane(iq, m-1), mixing)
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
// R_e = Σ w·E·Tr[Σ<·G> − Σ>·G<] over the shard's (ik, ie) pairs. Over
// all pairs it is the ElectronEnergyLoss observable; a distributed rank's
// is its partial, which the ranks reduce.
func (ps *PointSolver) ElectronCollisionSum() float64 {
	p := ps.Dev.P
	we := p.DE / (2 * math.Pi) / float64(p.Nkz)
	var re float64
	bl := p.Norb * p.Norb
	for i, pr := range ps.shard.Pairs {
		ik, ie := pr[0], pr[1]
		e := p.Energy(ie)
		for a := 0; a < p.Na; a++ {
			sl, sg := ps.sig.block(i, a, 0)
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
// R_ph = Σ w·ω·Tr[Π>·D< − Π<·D>] over the shard's (iq, m) points. Over
// all points it is the PhononEnergyGain observable.
func (ps *PointSolver) PhononCollisionSum() float64 {
	p := ps.Dev.P
	wp := p.DE / (2 * math.Pi) / float64(p.Nqz())
	var rp float64
	const n3 = device.N3D
	for j, pt := range ps.shard.Points {
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
				pl, pg := ps.pi.block(j, a, slot)
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
