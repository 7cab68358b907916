//go:build amd64

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func microKernelAVX2(kc int, ap, bp, acc *complex128)
//
// acc[r*8+s] += sum_k ap[k*2+r] * bp[k*8+s]  (complex128, r<2, s<8)
//
// One complex multiply-accumulate is computed exactly as Go lowers
// z += a*b on amd64 — four independently rounded multiplies, one
// add/sub pair, one final add — so the result is bit-identical to the
// pure-Go kernels. Deliberately NO FMA: a fused multiply-add would
// round differently and break the gemmStripe bit-identity contract.
//
// Per b-vector (2 complex in a ymm): v1 = bcast(ar)*b, v2 = bcast(ai)*
// swap(b), then VADDSUBPD gives (ar*br - ai*bi, ar*bi + ai*br) and
// VADDPD folds it into the accumulator.
//
// Register plan (exactly 16 ymm):
//	Y0-Y3  row-0 accumulators (8 complex)
//	Y4-Y7  row-1 accumulators
//	Y8-Y11 broadcast ar0, ai0, ar1, ai1 for the current k
//	Y12    current b vector, Y13 its pair-swapped copy
//	Y14-Y15 products
TEXT ·microKernelAVX2(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7

loop:
	VBROADCASTSD (SI), Y8       // ar0
	VBROADCASTSD 8(SI), Y9      // ai0
	VBROADCASTSD 16(SI), Y10    // ar1
	VBROADCASTSD 24(SI), Y11    // ai1

	// b columns 0-1
	VMOVUPD   (DI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y0, Y0
	VMULPD    Y12, Y10, Y14
	VMULPD    Y13, Y11, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y4, Y4

	// b columns 2-3
	VMOVUPD   32(DI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y1, Y1
	VMULPD    Y12, Y10, Y14
	VMULPD    Y13, Y11, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y5, Y5

	// b columns 4-5
	VMOVUPD   64(DI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y2, Y2
	VMULPD    Y12, Y10, Y14
	VMULPD    Y13, Y11, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y6, Y6

	// b columns 6-7
	VMOVUPD   96(DI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y3, Y3
	VMULPD    Y12, Y10, Y14
	VMULPD    Y13, Y11, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y7, Y7

	ADDQ $32, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func vecSubMulAVX2(dst, src *complex128, n int, l complex128)
//
// dst[j] -= l*src[j] for j in [0, n), n even (odd tail handled by the Go
// wrapper). Same no-FMA rounding as the scalar expression.
TEXT ·vecSubMulAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD l_real+24(FP), Y8
	VBROADCASTSD l_imag+32(FP), Y9
	SHRQ $1, CX
	JZ   done2

loop2:
	VMOVUPD   (SI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VMOVUPD   (DX), Y0
	VSUBPD    Y14, Y0, Y0
	VMOVUPD   Y0, (DX)
	ADDQ      $32, SI
	ADDQ      $32, DX
	DECQ      CX
	JNZ       loop2

done2:
	VZEROUPPER
	RET

// func vecScaleAVX2(dst *complex128, n int, s complex128)
//
// dst[j] *= s for j in [0, n), n even (odd tail handled by the Go
// wrapper).
TEXT ·vecScaleAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DX
	MOVQ n+8(FP), CX
	VBROADCASTSD s_real+16(FP), Y8
	VBROADCASTSD s_imag+24(FP), Y9
	SHRQ $1, CX
	JZ   done3

loop3:
	VMOVUPD   (DX), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VMOVUPD   Y14, (DX)
	ADDQ      $32, DX
	DECQ      CX
	JNZ       loop3

done3:
	VZEROUPPER
	RET

// func vecAddMulAVX2(dst, src *complex128, n int, s complex128)
//
// dst[j] += s*src[j] for j in [0, n), n even (odd tail handled by the Go
// wrapper). The product is formed exactly as in vecSubMulAVX2 and then
// added, dst first — the rounding sequence of the scalar dst[j] += s*src[j].
// Two vectors per trip so the independent multiply chains overlap.
TEXT ·vecAddMulAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD s_real+24(FP), Y8
	VBROADCASTSD s_imag+32(FP), Y9
	SHRQ $1, CX
	MOVQ CX, BX
	SHRQ $1, CX
	JZ   tail4

loop4:
	VMOVUPD   (SI), Y12
	VMOVUPD   32(SI), Y10
	VPERMILPD $0x5, Y12, Y13
	VPERMILPD $0x5, Y10, Y11
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VMULPD    Y10, Y8, Y6
	VMULPD    Y11, Y9, Y7
	VADDSUBPD Y15, Y14, Y14
	VADDSUBPD Y7, Y6, Y6
	VMOVUPD   (DX), Y0
	VMOVUPD   32(DX), Y1
	VADDPD    Y14, Y0, Y0
	VADDPD    Y6, Y1, Y1
	VMOVUPD   Y0, (DX)
	VMOVUPD   Y1, 32(DX)
	ADDQ      $64, SI
	ADDQ      $64, DX
	DECQ      CX
	JNZ       loop4

tail4:
	ANDQ $1, BX
	JZ   done4
	VMOVUPD   (SI), Y12
	VPERMILPD $0x5, Y12, Y13
	VMULPD    Y12, Y8, Y14
	VMULPD    Y13, Y9, Y15
	VADDSUBPD Y15, Y14, Y14
	VMOVUPD   (DX), Y0
	VADDPD    Y14, Y0, Y0
	VMOVUPD   Y0, (DX)

done4:
	VZEROUPPER
	RET

// func sumMul3x4AVX2(acc, x0, x1, x2, y *complex128, k, n int)
//
// For each of n consecutive steps: T = X·Y with X the 3×k matrix whose
// rows are the next k elements of x0, x1, x2 and Y the next k×4 row-major
// block of y, every T element summed over ascending k from zero in its own
// lane; then acc[i*4+j] += T[i][j]. The lanes run across the twelve
// accumulators, never across k, and the multiply-accumulate is the
// micro-kernel's no-FMA sequence, so each accumulator sees exactly the
// roundings of the scalar loops in sumMul3x4Go.
//
// Register plan: Y0-Y5 the step's T (row i in Y(2i), Y(2i+1)), Y6-Y7 the
// broadcast real and imaginary part of one x element, Y8-Y11 products,
// Y12-Y13 one row of Y, Y14-Y15 its pair-swapped copy.
TEXT ·sumMul3x4AVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DX
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	MOVQ x2+24(FP), R10
	MOVQ y+32(FP), DI
	MOVQ k+40(FP), R11
	MOVQ n+48(FP), CX

step5:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ   R11, BX

loop5:
	VMOVUPD   (DI), Y12
	VMOVUPD   32(DI), Y13
	VPERMILPD $0x5, Y12, Y14
	VPERMILPD $0x5, Y13, Y15

	VBROADCASTSD (R8), Y6
	VBROADCASTSD 8(R8), Y7
	VMULPD       Y12, Y6, Y8
	VMULPD       Y14, Y7, Y9
	VMULPD       Y13, Y6, Y10
	VMULPD       Y15, Y7, Y11
	VADDSUBPD    Y9, Y8, Y8
	VADDSUBPD    Y11, Y10, Y10
	VADDPD       Y8, Y0, Y0
	VADDPD       Y10, Y1, Y1

	VBROADCASTSD (R9), Y6
	VBROADCASTSD 8(R9), Y7
	VMULPD       Y12, Y6, Y8
	VMULPD       Y14, Y7, Y9
	VMULPD       Y13, Y6, Y10
	VMULPD       Y15, Y7, Y11
	VADDSUBPD    Y9, Y8, Y8
	VADDSUBPD    Y11, Y10, Y10
	VADDPD       Y8, Y2, Y2
	VADDPD       Y10, Y3, Y3

	VBROADCASTSD (R10), Y6
	VBROADCASTSD 8(R10), Y7
	VMULPD       Y12, Y6, Y8
	VMULPD       Y14, Y7, Y9
	VMULPD       Y13, Y6, Y10
	VMULPD       Y15, Y7, Y11
	VADDSUBPD    Y9, Y8, Y8
	VADDSUBPD    Y11, Y10, Y10
	VADDPD       Y8, Y4, Y4
	VADDPD       Y10, Y5, Y5

	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $64, DI
	DECQ BX
	JNZ  loop5

	VMOVUPD (DX), Y6
	VMOVUPD 32(DX), Y7
	VMOVUPD 64(DX), Y8
	VMOVUPD 96(DX), Y9
	VMOVUPD 128(DX), Y10
	VMOVUPD 160(DX), Y11
	VADDPD  Y0, Y6, Y6
	VADDPD  Y1, Y7, Y7
	VADDPD  Y2, Y8, Y8
	VADDPD  Y3, Y9, Y9
	VADDPD  Y4, Y10, Y10
	VADDPD  Y5, Y11, Y11
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	VMOVUPD Y8, 64(DX)
	VMOVUPD Y9, 96(DX)
	VMOVUPD Y10, 128(DX)
	VMOVUPD Y11, 160(DX)

	DECQ CX
	JNZ  step5

	VZEROUPPER
	RET
