package linalg

// Workspace is a per-worker pool of sized matrix temporaries and reusable
// LU records for the hot solver kernels. The RGF recursion and the NEGF
// point solves check temporaries out with Get, hand the per-step ones back
// with Put, and recycle everything at once with Reset at the start of the
// next solve — so after the first solve on a workspace, the steady state
// performs no heap allocation at all.
//
// Ownership rule: a Workspace is NOT safe for concurrent use. Every worker
// goroutine owns exactly one Workspace for the duration of a solve (the
// negf.PointSolver scratch pool and the dist rank workers enforce this);
// two goroutines sharing a workspace would hand out the same backing
// buffer twice.
//
// All workspace-backed operations are arithmetic-identical to their
// allocating counterparts: the fp64 results are bit-identical, which the
// qt facade equivalence suite relies on.
type Workspace struct {
	// free and all are keyed by element count (Rows*Cols): a buffer checked
	// out as r×c can be re-handed out as any shape with the same area, the
	// header's Rows/Cols being rebound on Get.
	free map[int][]*Matrix
	all  map[int][]*Matrix
	lus  map[int]*LU
	// pack holds the blocked GEMM's packing panels. Keeping them on the
	// workspace (rather than the global packPool) means the steady-state
	// solver path touches no shared pool at all.
	pack packBuf
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		free: make(map[int][]*Matrix),
		all:  make(map[int][]*Matrix),
		lus:  make(map[int]*LU),
	}
}

// Get checks out an r×c matrix with unspecified contents. The matrix
// remains owned by the caller until it is handed back with Put or the
// workspace is Reset.
func (ws *Workspace) Get(r, c int) *Matrix {
	k := r * c
	if fl := ws.free[k]; len(fl) > 0 {
		m := fl[len(fl)-1]
		ws.free[k] = fl[:len(fl)-1]
		m.Rows, m.Cols = r, c
		return m
	}
	m := New(r, c)
	ws.all[k] = append(ws.all[k], m)
	return m
}

// GetZero is Get with the contents cleared.
func (ws *Workspace) GetZero(r, c int) *Matrix {
	m := ws.Get(r, c)
	m.Zero()
	return m
}

// Put returns a checked-out matrix to the pool ahead of the next Reset —
// the discipline that keeps a solve's high-water footprint at its live set
// instead of its total temporary count. m must have come from this
// workspace's Get and must not be Put twice before a Reset.
func (ws *Workspace) Put(m *Matrix) {
	k := len(m.Data)
	ws.free[k] = append(ws.free[k], m)
}

// Reset checks every matrix ever handed out back into the pool. Matrices
// obtained before the Reset must not be used afterwards: the next Get may
// hand out their backing storage again.
func (ws *Workspace) Reset() {
	for k, a := range ws.all {
		ws.free[k] = append(ws.free[k][:0], a...)
	}
}

// LUFor returns the workspace's reusable n×n LU record for use with
// FactorizeInto. The record is shared across calls with the same n, so a
// factorization is only valid until the next LUFor(n)+FactorizeInto pair.
func (ws *Workspace) LUFor(n int) *LU {
	if f, ok := ws.lus[n]; ok {
		return f
	}
	f := NewLU(n)
	ws.lus[n] = f
	return f
}

// GEMM is linalg.GEMM backed by this workspace's packing panels instead of
// the global packPool, so the steady-state solver path touches no shared
// pool. Trans/ConjTrans operands are consumed directly by the packed
// kernel — nothing is materialized. The result is bit-identical to the
// allocating path (same kernel, same buffers modulo location). The
// workspace ownership rule applies: one goroutine at a time.
func (ws *Workspace) GEMM(alpha complex128, a *Matrix, opA Op, b *Matrix, opB Op, beta complex128, c *Matrix) {
	m, k := opDims(a, opA)
	k2, n := opDims(b, opB)
	if k != k2 || c.Rows != m || c.Cols != n {
		panicShape("GEMM", a, opA, b, opB)
	}
	checkNoAlias("Workspace.GEMM", c, a, b)
	countFlops(8 * int64(m) * int64(n) * int64(k))
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		scaleInPlace(c, beta)
		return
	}
	gemmDispatch(alpha, a, opA, b, opB, beta, c, ws)
}

// MulInto stores a·b into dst (which must be preallocated with the product
// shape and must not alias a or b) and returns dst.
func MulInto(dst, a, b *Matrix) *Matrix {
	GEMM(1, a, NoTrans, b, NoTrans, 0, dst)
	return dst
}

// MulInto is linalg.MulInto on this workspace's packing panels.
func (ws *Workspace) MulInto(dst, a, b *Matrix) *Matrix {
	ws.GEMM(1, a, NoTrans, b, NoTrans, 0, dst)
	return dst
}

// Mul3Into stores a·b·c into dst using pooled scratch for the
// intermediate product. The association is chosen with the same cost
// comparison as Mul3, so the fp64 result is bit-identical to
// Mul3(a, b, c). dst must not alias any operand.
func (ws *Workspace) Mul3Into(dst, a, b, c *Matrix) *Matrix {
	left := int64(a.Rows)*int64(a.Cols)*int64(b.Cols) + int64(a.Rows)*int64(b.Cols)*int64(c.Cols)
	right := int64(b.Rows)*int64(b.Cols)*int64(c.Cols) + int64(a.Rows)*int64(a.Cols)*int64(c.Cols)
	if left <= right {
		t := ws.Get(a.Rows, b.Cols)
		ws.MulInto(t, a, b)
		ws.MulInto(dst, t, c)
		ws.Put(t)
	} else {
		t := ws.Get(b.Rows, c.Cols)
		ws.MulInto(t, b, c)
		ws.MulInto(dst, a, t)
		ws.Put(t)
	}
	return dst
}
