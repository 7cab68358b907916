//go:build linux

package linalg

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedVec returns n values that end exactly where an inaccessible page
// begins, so a kernel that reads or writes one element past them faults.
func guardedVec(t *testing.T, n int) []complex128 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*16 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*complex128)(unsafe.Pointer(&mem[size-n*16])), n)
}

// TestSmallBatchStaysInBounds runs the row-panel kernel at every level on
// operands that each end at an inaccessible page: the zmm slice that takes
// a row's last n mod 4 columns must mask its loads of B and C and its
// stores to C, or the last row of B or C faults. Row counts cover every
// group tail; the results must still match the portable loop.
func TestSmallBatchStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, m := range []int{1, 3, 4, 6, 9, 13} {
		for _, n := range rowPanelNs {
			for _, k := range []int{1, 3} {
				a, b := randVec(rng, m*k), randVec(rng, k*n)
				c := randVec(rng, m*n)
				for mode := 0; mode <= rowFromC|rowSkipZero; mode++ {
					want := append([]complex128(nil), c...)
					smallBatchGo(want, a, b, m, n, k, 1, 0, 0, mode)
					atLevels(func(level string) {
						ga, gb, gc := guardedVec(t, len(a)), guardedVec(t, len(b)), guardedVec(t, len(c))
						copy(ga, a)
						copy(gb, b)
						copy(gc, c)
						smallBatch(gc, ga, gb, m, n, k, 1, 0, 0, mode)
						for i := range want {
							if !sameBits(gc[i], want[i]) {
								t.Fatalf("%s: m=%d n=%d k=%d mode=%d elem %d: %v != %v", level, m, n, k, mode, i, gc[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestVecAddMul3x2StaysInBounds runs the fused stencil step at every level
// on rows and sources that each end at an inaccessible page, at every
// length of vecAddMul3x2Ns: a zmm body that ran past the last whole
// vector, or a tail that read one element too many, faults. The rows must
// still equal the six VecAddMul calls.
func TestVecAddMul3x2StaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range vecAddMul3x2Ns {
		l, buf := newStencilLayout(rng, n)
		c := stencilWeights(rng)[0]
		atLevels(func(level string) {
			want := append([]complex128(nil), buf...)
			wd, wl, wg := l.rows(want)
			vecAddMul3x2Want(&wd, wl, wg, &c)
			sd, sl, sg := l.rows(buf)
			var dst [6][]complex128
			for r := range dst {
				dst[r] = guardedVec(t, n)
				copy(dst[r], sd[r])
			}
			pl, pg := guardedVec(t, n), guardedVec(t, n)
			copy(pl, sl)
			copy(pg, sg)
			VecAddMul3x2(&dst, pl, pg, &c)
			for r := range dst {
				for k := range dst[r] {
					if !stencilSame(level, dst[r][k], wd[r][k]) {
						t.Fatalf("%s: n=%d row %d elem %d: %v != %v", level, n, r, k, dst[r][k], wd[r][k])
					}
				}
			}
		})
	}
}
