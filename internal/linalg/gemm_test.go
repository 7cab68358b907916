package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// specialOperands is makeOperands with the values rounding and zero-skip
// bugs hide behind: a quarter of A and of C (beta ≠ 0) are zeros of either
// sign, about one A or B element per C element's k-sweep is ±Inf or NaN,
// op(A)'s first row is all −0, and with beta = 0 C holds NaN garbage the
// kernel must not read.
func specialOperands(rng *rand.Rand, m, n, k int, opA, opB Op, beta complex128) (a, b, c *Matrix) {
	a, b, c = makeOperands(rng, m, n, k, opA, opB)
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	zeros := []complex128{0, complex(negZero, 0), complex(0, negZero), complex(negZero, negZero)}
	nonFinite := []complex128{complex(inf, 1), complex(-inf, 0), complex(0, inf), complex(nan, 0), complex(1, nan)}
	sprinkle := func(x *Matrix, withZeros bool) {
		for i := range x.Data {
			switch {
			case rng.Intn(4*k) == 0:
				x.Data[i] = nonFinite[rng.Intn(len(nonFinite))]
			case withZeros && rng.Intn(4) == 0:
				x.Data[i] = zeros[rng.Intn(len(zeros))]
			}
		}
	}
	sprinkle(a, true)
	sprinkle(b, false)
	if beta == 0 {
		for i := range c.Data {
			c.Data[i] = complex(nan, nan)
		}
	} else {
		sprinkle(c, true)
	}
	for p := 0; p < k; p++ {
		if opA == NoTrans {
			a.Data[p] = complex(negZero, negZero)
		} else {
			a.Data[p*a.Cols] = complex(negZero, negZero)
		}
	}
	return a, b, c
}

// checkSameBits is checkBitwise up to NaN payloads, which the contract
// leaves open (sameBits).
func checkSameBits(t *testing.T, ctx string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d differs: got %v want %v", ctx, i, got.Data[i], want.Data[i])
		}
	}
}

// dispatchShapes are the (m, n, k) TestGEMMBitwiseAcrossDispatch sweeps:
// every combination of 1, 2, 5 and 8, and around rowPanelMaxKN the op(B)
// shapes whose k·n is just under, at and just over it on each axis — one
// column or one row deep under one row of A or eight (two row-panel blocks
// of op(A) when k is the bound), and squares a side off under one, a few
// and a panel's worth of rows.
func dispatchShapes() [][3]int {
	var shapes [][3]int
	small := []int{1, 2, 5, 8}
	for _, m := range small {
		for _, n := range small {
			for _, k := range small {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	for _, d := range []int{-1, 0, 1} {
		for _, m := range []int{1, 8} {
			shapes = append(shapes, [3]int{m, 1, rowPanelMaxKN + d}, [3]int{m, rowPanelMaxKN + d, 1})
		}
	}
	s := int(math.Sqrt(rowPanelMaxKN))
	for _, nk := range [][2]int{{s - 1, s}, {s, s}, {s + 1, s}, {s, s - 1}, {s, s + 1}} {
		for _, m := range []int{1, 7, s} {
			shapes = append(shapes, [3]int{m, nk[0], nk[1]})
		}
	}
	return shapes
}

// TestGEMMBitwiseAcrossDispatch pins GEMM and Workspace.GEMM at every
// level against the i-k-j reference on both sides of the row-panel/packed
// dispatch: every shape of dispatchShapes under all nine op pairs,
// alpha ∈ {0, 1, z} and beta ∈ {0, 1, z}, on specialOperands — so
// 1·a ≠ a, a zero of A facing an Inf of B, a −0 in C and unread NaN
// garbage all have to come out as the reference has them.
func TestGEMMBitwiseAcrossDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	ws := NewWorkspace()
	i := 0
	for _, sh := range dispatchShapes() {
		m, n, k := sh[0], sh[1], sh[2]
		for _, opA := range allOps {
			for _, opB := range allOps {
				for _, alpha := range alphaCases {
					for _, beta := range betaCases {
						a, b, c := specialOperands(rng, m, n, k, opA, opB, beta)
						want := c.Clone()
						referenceGEMM(alpha, a, opA, b, opB, beta, want)
						i++
						atLevels(func(level string) {
							got := c.Clone()
							if i%2 == 0 {
								GEMM(alpha, a, opA, b, opB, beta, got)
							} else {
								ws.GEMM(alpha, a, opA, b, opB, beta, got)
							}
							checkSameBits(t, fmt.Sprintf("%s: m=%d n=%d k=%d op=%s%s alpha=%v beta=%v", level, m, n, k, opA, opB, alpha, beta), got, want)
						})
					}
				}
			}
		}
	}
	t.Logf("levels: %s", strings.Join(simdLevels(), " "))
}

// FuzzGEMM extends TestGEMMBitwiseAcrossDispatch to any shape up to 70 on
// each axis — k·n from 1 to well past rowPanelMaxKN — and any of the 81
// (op pair, alpha, beta) combinations, at every level.
func FuzzGEMM(f *testing.F) {
	f.Add(uint8(12), uint8(12), uint8(12), uint8(0), int64(1))
	f.Add(uint8(48), uint8(48), uint8(49), uint8(40), int64(2))
	f.Add(uint8(3), uint8(49), uint8(48), uint8(80), int64(3))
	f.Add(uint8(1), uint8(64), uint8(64), uint8(59), int64(4))
	f.Fuzz(func(t *testing.T, m, n, k, combo uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		mm, nn, kk := 1+int(m)%70, 1+int(n)%70, 1+int(k)%70
		c := int(combo) % 81
		opA, opB, alpha, beta := allOps[c%3], allOps[c/3%3], alphaCases[c/9%3], betaCases[c/27]
		a, b, cm := specialOperands(rng, mm, nn, kk, opA, opB, beta)
		want := cm.Clone()
		referenceGEMM(alpha, a, opA, b, opB, beta, want)
		atLevels(func(level string) {
			got := cm.Clone()
			if seed%2 == 0 {
				GEMM(alpha, a, opA, b, opB, beta, got)
			} else {
				NewWorkspace().GEMM(alpha, a, opA, b, opB, beta, got)
			}
			checkSameBits(t, fmt.Sprintf("%s: m=%d n=%d k=%d op=%s%s alpha=%v beta=%v", level, mm, nn, kk, opA, opB, alpha, beta), got, want)
		})
		t.Logf("levels: %s", strings.Join(simdLevels(), " "))
	})
}
