package linalg

import (
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func TestWorkspaceGetPutReset(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(3, 4)
	b := ws.Get(3, 4)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("two live checkouts share backing storage")
	}
	ws.Put(a)
	c := ws.Get(4, 3) // same area, different shape: must reuse a's buffer
	if &c.Data[0] != &a.Data[0] {
		t.Error("Put buffer not reused by the next same-area Get")
	}
	if c.Rows != 4 || c.Cols != 3 {
		t.Errorf("reused header not reshaped: %dx%d", c.Rows, c.Cols)
	}
	ws.Reset()
	seen := map[*complex128]bool{&a.Data[0]: true, &b.Data[0]: true}
	d, e := ws.Get(3, 4), ws.Get(3, 4)
	if !seen[&d.Data[0]] || !seen[&e.Data[0]] {
		t.Error("Reset did not recycle all previously checked-out buffers")
	}
	if &d.Data[0] == &e.Data[0] {
		t.Error("Reset handed the same buffer out twice")
	}
}

func TestWorkspaceGetZero(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(2, 2)
	for i := range m.Data {
		m.Data[i] = 7
	}
	ws.Reset()
	z := ws.GetZero(2, 2)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZero element %d = %v", i, v)
		}
	}
}

func TestHIntoTIntoMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 3, 5)
	if d := MaxDiff(HInto(New(5, 3), a), a.H()); d != 0 {
		t.Errorf("HInto differs from H() by %g", d)
	}
	if d := MaxDiff(TInto(New(5, 3), a), a.T()); d != 0 {
		t.Errorf("TInto differs from T() by %g", d)
	}
}

func TestWorkspaceGEMMMatchesGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ws := NewWorkspace()
	for _, ops := range [][2]Op{
		{NoTrans, Trans}, {NoTrans, ConjTrans},
		{Trans, NoTrans}, {ConjTrans, NoTrans},
		{ConjTrans, ConjTrans}, {Trans, ConjTrans},
	} {
		opA, opB := ops[0], ops[1]
		// Shape the stored operands so op(A) is 6×4 and op(B) is 4×5.
		a := randMat(rng, 6, 4)
		if opA != NoTrans {
			a = randMat(rng, 4, 6)
		}
		b := randMat(rng, 4, 5)
		if opB != NoTrans {
			b = randMat(rng, 5, 4)
		}
		want := New(6, 5)
		GEMM(2-1i, a, opA, b, opB, 0, want)
		got := ws.Get(6, 5)
		ws.GEMM(2-1i, a, opA, b, opB, 0, got)
		if d := MaxDiff(got, want); d != 0 {
			t.Errorf("ws.GEMM %v%v differs from GEMM by %g", opA, opB, d)
		}
		ws.Reset()
	}
}

func TestMul3IntoMatchesMul3(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := NewWorkspace()
	// Shapes forcing each association branch: (2×9)·(9×9)·(9×3) goes
	// right-first, (9×2)·(2×2)·(2×9) goes left-first.
	for _, dims := range [][4]int{{2, 9, 9, 3}, {9, 2, 2, 9}, {4, 4, 4, 4}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		c := randMat(rng, dims[2], dims[3])
		want := Mul3(a, b, c)
		got := ws.Get(dims[0], dims[3])
		ws.Mul3Into(got, a, b, c)
		if d := MaxDiff(got, want); d != 0 {
			t.Errorf("Mul3Into %v differs from Mul3 by %g", dims, d)
		}
		ws.Reset()
	}
}

func TestFactorizeIntoMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := NewLU(5)
	for trial := 0; trial < 3; trial++ {
		a := randMat(rng, 5, 5)
		want, err := Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.FactorizeInto(a); err != nil {
			t.Fatal(err)
		}
		if d := MaxDiff(f.lu, want.lu); d != 0 {
			t.Errorf("trial %d: packed factors differ by %g", trial, d)
		}
		for i := range f.pivot {
			if f.pivot[i] != want.pivot[i] {
				t.Errorf("trial %d: pivot %d differs", trial, i)
			}
		}
		if f.Det() != want.Det() {
			t.Errorf("trial %d: determinant %v != %v", trial, f.Det(), want.Det())
		}
		inv := New(5, 5)
		f.InverseInto(inv)
		ref, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxDiff(inv, ref); d != 0 {
			t.Errorf("trial %d: InverseInto differs from Inverse by %g", trial, d)
		}
	}
}

func TestFactorizeIntoRejectsMismatch(t *testing.T) {
	f := NewLU(3)
	if err := f.FactorizeInto(New(4, 4)); err == nil {
		t.Error("expected dimension-mismatch error")
	}
	if err := f.FactorizeInto(New(3, 2)); err == nil {
		t.Error("expected non-square error")
	}
}

func TestFactorizeIntoSingular(t *testing.T) {
	f := NewLU(2)
	if err := f.FactorizeInto(New(2, 2)); err != ErrSingular {
		t.Errorf("got %v, want ErrSingular", err)
	}
	// The record must stay reusable after a failed factorization.
	a := New(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	if err := f.FactorizeInto(a); err != nil {
		t.Fatal(err)
	}
	inv := New(2, 2)
	f.InverseInto(inv)
	if inv.At(0, 0) != 0.5 || inv.At(1, 1) != complex(1.0/3, 0) {
		t.Errorf("inverse after recovery wrong: %v", inv)
	}
}

func TestSetIdentity(t *testing.T) {
	m := New(3, 3)
	for i := range m.Data {
		m.Data[i] = 9
	}
	m.SetIdentity()
	if d := MaxDiff(m, Eye(3)); d != 0 {
		t.Errorf("SetIdentity differs from Eye by %g", d)
	}
}

// TestWorkspaceSteadyStateAllocFree pins the whole point of the pool: a
// warm workspace runs the checkout/compute/reset cycle without touching
// the heap.
func TestWorkspaceSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ws := NewWorkspace()
	a := randMat(rng, 6, 6)
	b := randMat(rng, 6, 6)
	c := randMat(rng, 6, 6)
	work := func() {
		ws.Reset()
		t1 := ws.Get(6, 6)
		ws.Mul3Into(t1, a, b, c)
		t2 := ws.Get(6, 6)
		ws.GEMM(1, t1, ConjTrans, a, NoTrans, 0, t2)
		f := ws.LUFor(6)
		if err := f.FactorizeInto(a); err != nil {
			t.Fatal(err)
		}
		f.InverseInto(t1)
	}
	work() // warm the pool
	if allocs := testing.AllocsPerRun(10, work); allocs > 0 {
		t.Errorf("steady-state workspace cycle allocates %.1f times per run", allocs)
	}
}

// TestPackPanelsSizedByProblem: the packing panels are sized by the
// product, not by the compiled-in MC×KC / KC×NC cache block (0.8 MB per
// workspace before, whatever the block size) — a 12×12 product packs a
// few KB — and they grow on demand without touching a result: a 64×64
// product on the grown workspace is bitwise the one on a fresh workspace.
func TestPackPanelsSizedByProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := NewWorkspace()
	a, b := randMat(rng, 12, 12), randMat(rng, 12, 12)
	small := New(12, 12)
	ws.GEMM(1, a, NoTrans, b, ConjTrans, 0, small)
	if panels := 16 * (cap(ws.pack.a) + cap(ws.pack.b)); panels == 0 || panels >= 16<<10 {
		t.Errorf("a 12×12 product holds %d bytes of panels, want under 16 KB", panels)
	}
	want := New(12, 12)
	GEMM(1, a, NoTrans, b, ConjTrans, 0, want)
	if d := MaxDiff(small, want); d != 0 {
		t.Errorf("12×12 on small panels differs from GEMM by %g", d)
	}

	a, b = randMat(rng, 64, 64), randMat(rng, 64, 64)
	grown, fresh := New(64, 64), New(64, 64)
	ws.GEMM(1, a, Trans, b, NoTrans, 0, grown)
	NewWorkspace().GEMM(1, a, Trans, b, NoTrans, 0, fresh)
	for i, v := range grown.Data {
		if v != fresh.Data[i] {
			t.Fatalf("64×64 on the grown workspace differs from a fresh one at %d: %v vs %v", i, v, fresh.Data[i])
		}
	}
}
