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
