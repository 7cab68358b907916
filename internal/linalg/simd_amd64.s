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

// AVX-512 has no VADDSUBPD, so the zmm bodies fold its subtraction into a
// sign: signRe is −1 in the real lanes and +1 in the imaginary ones, and
// multiplying the pair-swapped operand (or the imaginary broadcast) by it
// turns ai·bi into −(ai·bi), exactly, as rounding to nearest is symmetric.
// The plain add that follows, ar·br + (−(ai·bi)), is by definition the
// subtraction ar·br − ai·bi, signed zeros included, so every lane rounds
// as the ymm sequence does.
DATA signRe<>+0(SB)/8, $0xbff0000000000000
DATA signRe<>+8(SB)/8, $0x3ff0000000000000
DATA signRe<>+16(SB)/8, $0xbff0000000000000
DATA signRe<>+24(SB)/8, $0x3ff0000000000000
DATA signRe<>+32(SB)/8, $0xbff0000000000000
DATA signRe<>+40(SB)/8, $0x3ff0000000000000
DATA signRe<>+48(SB)/8, $0xbff0000000000000
DATA signRe<>+56(SB)/8, $0x3ff0000000000000
GLOBL signRe<>(SB), RODATA|NOPTR, $64

// SIGNSWAPZ(b, bs): bs = the four complex of b pair-swapped and signed by
// signRe (held in Z31): (−bi, br) per complex.
#define SIGNSWAPZ(b, bs) \
	VPERMILPD $0x55, b, bs; \
	VMULPD    Z31, bs, bs

// MADDZ(ar, ai, b, bs, tr, ti, acc): acc += a·b for the complex a at ar/ai
// and the four complex b in b (bs from SIGNSWAPZ): per lane ar·b + ai·bs,
// the ymm sequence's VADDSUBPD as a plain add. tr and ti take the
// broadcasts of ar and ai, then their products.
#define MADDZ(ar, ai, b, bs, tr, ti, acc) \
	VBROADCASTSD ar, tr; \
	VBROADCASTSD ai, ti; \
	VMULPD       b, tr, tr; \
	VMULPD       bs, ti, ti; \
	VADDPD       ti, tr, tr; \
	VADDPD       tr, acc, acc

// func vecAddMulAVX512(dst, src *complex128, n int, s complex128)
//
// vecAddMulAVX2 on zmm: dst[j] += s*src[j] for j in [0, n), n a multiple
// of four (the Go wrapper hands the rest to the ymm and scalar paths), two
// vectors per trip and a one-vector tail. The imaginary broadcast carries
// the sign: Z9 = signRe·si.
TEXT ·vecAddMulAVX512(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DX
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD s_real+24(FP), Z8
	VBROADCASTSD s_imag+32(FP), Z9
	VMULPD       signRe<>(SB), Z9, Z9
	SHRQ         $2, CX
	MOVQ         CX, BX
	SHRQ         $1, CX
	JZ           tail7

loop7:
	VMOVUPD   (SI), Z12
	VMOVUPD   64(SI), Z10
	VPERMILPD $0x55, Z12, Z13
	VPERMILPD $0x55, Z10, Z11
	VMULPD    Z12, Z8, Z14
	VMULPD    Z13, Z9, Z15
	VMULPD    Z10, Z8, Z6
	VMULPD    Z11, Z9, Z7
	VADDPD    Z15, Z14, Z14
	VADDPD    Z7, Z6, Z6
	VMOVUPD   (DX), Z0
	VMOVUPD   64(DX), Z1
	VADDPD    Z14, Z0, Z0
	VADDPD    Z6, Z1, Z1
	VMOVUPD   Z0, (DX)
	VMOVUPD   Z1, 64(DX)
	ADDQ      $128, SI
	ADDQ      $128, DX
	DECQ      CX
	JNZ       loop7

tail7:
	ANDQ $1, BX
	JZ   done7
	VMOVUPD   (SI), Z12
	VPERMILPD $0x55, Z12, Z13
	VMULPD    Z12, Z8, Z14
	VMULPD    Z13, Z9, Z15
	VADDPD    Z15, Z14, Z14
	VMOVUPD   (DX), Z0
	VADDPD    Z14, Z0, Z0
	VMOVUPD   Z0, (DX)

done7:
	VZEROUPPER
	RET

// func vecSubMulAVX512(dst, src *complex128, n int, l complex128)
//
// vecSubMulAVX2 on zmm: dst[j] -= l*src[j] for j in [0, n), n a multiple
// of four, the product formed as in vecAddMulAVX512 and then subtracted,
// two vectors per trip and a one-vector tail.
TEXT ·vecSubMulAVX512(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DX
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD l_real+24(FP), Z8
	VBROADCASTSD l_imag+32(FP), Z9
	VMULPD       signRe<>(SB), Z9, Z9
	SHRQ         $2, CX
	MOVQ         CX, BX
	SHRQ         $1, CX
	JZ           tail9

loop9:
	VMOVUPD   (SI), Z12
	VMOVUPD   64(SI), Z10
	VPERMILPD $0x55, Z12, Z13
	VPERMILPD $0x55, Z10, Z11
	VMULPD    Z12, Z8, Z14
	VMULPD    Z13, Z9, Z15
	VMULPD    Z10, Z8, Z6
	VMULPD    Z11, Z9, Z7
	VADDPD    Z15, Z14, Z14
	VADDPD    Z7, Z6, Z6
	VMOVUPD   (DX), Z0
	VMOVUPD   64(DX), Z1
	VSUBPD    Z14, Z0, Z0
	VSUBPD    Z6, Z1, Z1
	VMOVUPD   Z0, (DX)
	VMOVUPD   Z1, 64(DX)
	ADDQ      $128, SI
	ADDQ      $128, DX
	DECQ      CX
	JNZ       loop9

tail9:
	ANDQ $1, BX
	JZ   done9
	VMOVUPD   (SI), Z12
	VPERMILPD $0x55, Z12, Z13
	VMULPD    Z12, Z8, Z14
	VMULPD    Z13, Z9, Z15
	VADDPD    Z15, Z14, Z14
	VMOVUPD   (DX), Z0
	VSUBPD    Z14, Z0, Z0
	VMOVUPD   Z0, (DX)

done9:
	VZEROUPPER
	RET

// func vecScaleAVX512(dst *complex128, n int, s complex128)
//
// vecScaleAVX2 on zmm: dst[j] *= s for j in [0, n), n a multiple of four,
// two vectors per trip and a one-vector tail.
TEXT ·vecScaleAVX512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DX
	MOVQ         n+8(FP), CX
	VBROADCASTSD s_real+16(FP), Z8
	VBROADCASTSD s_imag+24(FP), Z9
	VMULPD       signRe<>(SB), Z9, Z9
	SHRQ         $2, CX
	MOVQ         CX, BX
	SHRQ         $1, CX
	JZ           tail10

loop10:
	VMOVUPD   (DX), Z12
	VMOVUPD   64(DX), Z10
	VPERMILPD $0x55, Z12, Z13
	VPERMILPD $0x55, Z10, Z11
	VMULPD    Z12, Z8, Z14
	VMULPD    Z13, Z9, Z15
	VMULPD    Z10, Z8, Z6
	VMULPD    Z11, Z9, Z7
	VADDPD    Z15, Z14, Z14
	VADDPD    Z7, Z6, Z6
	VMOVUPD   Z14, (DX)
	VMOVUPD   Z6, 64(DX)
	ADDQ      $128, DX
	DECQ      CX
	JNZ       loop10

tail10:
	ANDQ $1, BX
	JZ   done10
	VMOVUPD   (DX), Z12
	VPERMILPD $0x55, Z12, Z13
	VMULPD    Z12, Z8, Z14
	VMULPD    Z13, Z9, Z15
	VADDPD    Z15, Z14, Z14
	VMOVUPD   Z14, (DX)

done10:
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

// func sumMul3x4AVX512(acc, x0, x1, x2, y *complex128, k, n int)
//
// sumMul3x4AVX2 on zmm: a step's T row i, four complex, is one zmm, so T
// takes three accumulators where the ymm body needs six. Two steps run at
// once, T of step e in Z0-Z2 and of step e+1 in Z3-Z5, so that their add
// chains overlap; an odd last step runs alone. acc stays in Z20-Z22 and
// adds T of step e, then T of step e+1: the order of sumMul3x4Go.
//
// Registers: R8-R10 the x rows at step e's current k (step e+1's are R12
// bytes on), DI its row of y (step e+1's is R13 bytes on), BX k left, CX
// steps left, Z12/Z14 one row of y for each step, Z13/Z15 their signed
// swaps, Z31 signRe.
TEXT ·sumMul3x4AVX512(SB), NOSPLIT, $0-56
	MOVQ    acc+0(FP), DX
	MOVQ    x0+8(FP), R8
	MOVQ    x1+16(FP), R9
	MOVQ    x2+24(FP), R10
	MOVQ    y+32(FP), DI
	MOVQ    k+40(FP), R11
	MOVQ    n+48(FP), CX
	MOVQ    R11, R12
	SHLQ    $4, R12
	MOVQ    R11, R13
	SHLQ    $6, R13
	VMOVUPD signRe<>(SB), Z31
	VMOVUPD (DX), Z20
	VMOVUPD 64(DX), Z21
	VMOVUPD 128(DX), Z22
	CMPQ    CX, $2
	JLT     one8

two8:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	MOVQ   R11, BX

twok8:
	VMOVUPD (DI), Z12
	VMOVUPD (DI)(R13*1), Z14
	SIGNSWAPZ(Z12, Z13)
	SIGNSWAPZ(Z14, Z15)
	MADDZ((R8), 8(R8), Z12, Z13, Z8, Z9, Z0)
	MADDZ((R8)(R12*1), 8(R8)(R12*1), Z14, Z15, Z10, Z11, Z3)
	MADDZ((R9), 8(R9), Z12, Z13, Z8, Z9, Z1)
	MADDZ((R9)(R12*1), 8(R9)(R12*1), Z14, Z15, Z10, Z11, Z4)
	MADDZ((R10), 8(R10), Z12, Z13, Z8, Z9, Z2)
	MADDZ((R10)(R12*1), 8(R10)(R12*1), Z14, Z15, Z10, Z11, Z5)
	ADDQ    $16, R8
	ADDQ    $16, R9
	ADDQ    $16, R10
	ADDQ    $64, DI
	DECQ    BX
	JNZ     twok8

	VADDPD Z0, Z20, Z20
	VADDPD Z1, Z21, Z21
	VADDPD Z2, Z22, Z22
	VADDPD Z3, Z20, Z20
	VADDPD Z4, Z21, Z21
	VADDPD Z5, Z22, Z22
	ADDQ   R12, R8
	ADDQ   R12, R9
	ADDQ   R12, R10
	ADDQ   R13, DI
	SUBQ   $2, CX
	CMPQ   CX, $2
	JGE    two8

one8:
	TESTQ  CX, CX
	JZ     done8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2

onek8:
	VMOVUPD (DI), Z12
	SIGNSWAPZ(Z12, Z13)
	MADDZ((R8), 8(R8), Z12, Z13, Z8, Z9, Z0)
	MADDZ((R9), 8(R9), Z12, Z13, Z8, Z9, Z1)
	MADDZ((R10), 8(R10), Z12, Z13, Z8, Z9, Z2)
	ADDQ    $16, R8
	ADDQ    $16, R9
	ADDQ    $16, R10
	ADDQ    $64, DI
	DECQ    R11
	JNZ     onek8

	VADDPD Z0, Z20, Z20
	VADDPD Z1, Z21, Z21
	VADDPD Z2, Z22, Z22

done8:
	VMOVUPD Z20, (DX)
	VMOVUPD Z21, 64(DX)
	VMOVUPD Z22, 128(DX)
	VZEROUPPER
	RET

// MADDY(ar, ai, acc): acc += a·b for the complex a at ar/ai and the two
// complex b in Y12 (Y13 pair-swapped), the micro-kernel's no-FMA sequence
// per lane.
#define MADDY(ar, ai, acc) \
	VBROADCASTSD ar, Y8; \
	VBROADCASTSD ai, Y9; \
	VMULPD       Y12, Y8, Y14; \
	VMULPD       Y13, Y9, Y15; \
	VADDSUBPD    Y15, Y14, Y14; \
	VADDPD       Y14, acc, acc

// MADDX(ar, ai, acc): MADDY for the one complex b in X12 (X13 swapped).
#define MADDX(ar, ai, acc) \
	VMOVDDUP  ar, X8; \
	VMOVDDUP  ai, X9; \
	VMULPD    X12, X8, X14; \
	VMULPD    X13, X9, X15; \
	VADDSUBPD X15, X14, X14; \
	VADDPD    X14, acc, acc

// SKIPZERO(ar, ai, to): jump to to when the complex at ar/ai is ±0 in both
// parts — the OR of the two words with its sign bit shifted out is zero.
#define SKIPZERO(ar, ai, to) \
	MOVQ ar, R11; \
	ORQ  ai, R11; \
	ADDQ R11, R11; \
	JZ   to

// func smallBatchAsm(c, a, b *complex128, m, n, k, count, aStride, bStride, mode int)
//
// The row-panel kernel, smallBatchGo's loop: for t in [0, count),
// C[t] (m×n) = A[t] (m×k) · B[t] (k×n), row-major blocks, A[t] at
// a + t·aStride, B[t] at b + t·bStride, C[t] at c + t·m·n (strides in
// elements; m, n, k, count ≥ 1). A C element starts from +0, or from C
// when mode has rowFromC (bit 0), and adds a_ip·B[t][p][j] for ascending
// p, so every element sees the roundings of smallBatchGo, whichever C
// elements share a load of B; when mode has rowSkipZero (bit 1) an a_ip
// of ±0 contributes nothing, smallBatchGo's av == 0 skip.
//
// Under rowZMM (bit 2, AVX-512 hosts only) the rows go in groups of
// eight, then at most one group of four, then pairs, an odd last row
// paired with itself (both halves compute the same bits and store them
// to the same place), and each group in zmm column slices of four
// complex, the last one masked to the n mod 4 columns left: K1 holds the
// slice's lanes, K3 (all eight) or K2 (the last slice's), its loads zero
// the other lanes and its stores leave them, so nothing past an operand
// is touched. Each step p of a slice loads B's slice, swaps and signs it
// once and feeds every row of the group, so a group of eight streams B
// once where row pairs streamed it four times. Registers: DX the block
// B[t], DI its C[t] row of the group, AX its A[t] row, R10 the A row
// length in bytes (0 for a row paired with itself), SI 3·R10, R12 the C
// and B row length in bytes, BX rows left, CX slices left, R13 the
// slice's top in B[t], R14 the a_ip of the group's first row at step p,
// R9 that of its fifth (groups of eight) or the distance in C to a pair's
// second row (0 when paired with itself), R15 the B[t] slice of step p,
// R8 steps left, R11 scratch; Z0–Z7 accumulate rows 0–7 of a group,
// Z(8+2j) and Z(9+2j) broadcast row j's a_ip and take its products,
// Z24/Z25 B's slice and its signed swap, Z31 signRe. That is every
// general register but SP and the frame pointer, so A[t] advances in its
// argument slot.
//
// Otherwise the rows go in pairs, an odd last row paired with itself, and
// each pair in ymm slices of two complex, then one xmm slice for odd n.
// Registers: DI the C element being written (C is dense, so it only
// advances), SI/DX the blocks A[t]/B[t], R12 the C and B row length in
// bytes, AX the pair's first row of A[t], R10 and R9 the distance to its
// second row in A and in C (0 when paired with itself), BX rows left, CX
// slices left, R13 the slice's top in B[t], R14/R15 the a_ip and B[t]
// slice of step p, R8 steps left, R11 the mode, then scratch.
//
// Either way the block count counts down in its argument slot.
TEXT ·smallBatchAsm(SB), NOSPLIT, $0-80
	MOVQ  c+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  n+32(FP), R12
	SHLQ  $4, R12
	TESTQ $4, mode+72(FP)
	JNZ   zmm6

block6:
	MOVQ SI, AX
	MOVQ m+24(FP), BX

pair6:
	MOVQ k+40(FP), R10
	SHLQ $4, R10
	MOVQ R12, R9
	CMPQ BX, $1
	JNE  rows6
	XORQ R10, R10
	XORQ R9, R9

rows6:
	MOVQ DX, R13
	MOVQ n+32(FP), CX

ymm6:
	SHRQ $1, CX
	JZ   tail6

slice6:
	MOVQ  AX, R14
	MOVQ  R13, R15
	MOVQ  k+40(FP), R8
	MOVQ  mode+72(FP), R11
	TESTQ $1, R11
	JNZ   loady6
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JMP   starty6

loady6:
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R9*1), Y1

starty6:
	TESTQ $2, R11
	JZ    ally6

skipy6:
	VMOVUPD   (R15), Y12
	VPERMILPD $0x5, Y12, Y13
	SKIPZERO((R14), 8(R14), oney6)
	MADDY((R14), 8(R14), Y0)

oney6:
	SKIPZERO((R14)(R10*1), 8(R14)(R10*1), nexty6)
	MADDY((R14)(R10*1), 8(R14)(R10*1), Y1)

nexty6:
	ADDQ $16, R14
	ADDQ R12, R15
	DECQ R8
	JNZ  skipy6
	JMP  storey6

ally6:
	VMOVUPD   (R15), Y12
	VPERMILPD $0x5, Y12, Y13
	MADDY((R14), 8(R14), Y0)
	MADDY((R14)(R10*1), 8(R14)(R10*1), Y1)
	ADDQ      $16, R14
	ADDQ      R12, R15
	DECQ      R8
	JNZ       ally6

storey6:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R9*1)
	ADDQ    $32, DI
	ADDQ    $32, R13
	DECQ    CX
	JNZ     slice6

tail6:
	MOVQ  n+32(FP), R8
	TESTQ $1, R8
	JZ    next6
	MOVQ  AX, R14
	MOVQ  R13, R15
	MOVQ  k+40(FP), R8
	MOVQ  mode+72(FP), R11
	TESTQ $1, R11
	JNZ   loadx6
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	JMP   startx6

loadx6:
	VMOVUPD (DI), X0
	VMOVUPD (DI)(R9*1), X1

startx6:
	TESTQ $2, R11
	JZ    allx6

skipx6:
	VMOVUPD   (R15), X12
	VPERMILPD $0x1, X12, X13
	SKIPZERO((R14), 8(R14), onex6)
	MADDX((R14), 8(R14), X0)

onex6:
	SKIPZERO((R14)(R10*1), 8(R14)(R10*1), nextx6)
	MADDX((R14)(R10*1), 8(R14)(R10*1), X1)

nextx6:
	ADDQ $16, R14
	ADDQ R12, R15
	DECQ R8
	JNZ  skipx6
	JMP  storex6

allx6:
	VMOVUPD   (R15), X12
	VPERMILPD $0x1, X12, X13
	MADDX((R14), 8(R14), X0)
	MADDX((R14)(R10*1), 8(R14)(R10*1), X1)
	ADDQ      $16, R14
	ADDQ      R12, R15
	DECQ      R8
	JNZ       allx6

storex6:
	VMOVUPD X0, (DI)
	VMOVUPD X1, (DI)(R9*1)
	ADDQ    $16, DI

next6:
	ADDQ R9, DI
	LEAQ (AX)(R10*2), AX
	SUBQ $2, BX
	JG   pair6

	MOVQ aStride+56(FP), R11
	SHLQ $4, R11
	ADDQ R11, SI
	MOVQ bStride+64(FP), R11
	SHLQ $4, R11
	ADDQ R11, DX
	DECQ count+48(FP)
	JNZ  block6

	VZEROUPPER
	RET

zmm6:
	VMOVUPD signRe<>(SB), Z31
	MOVQ    $0xff, R11
	KMOVW   R11, K3
	KMOVW   R11, K2
	MOVQ    n+32(FP), CX
	ANDQ    $3, CX
	JZ      blockz6
	SHLQ    $1, CX
	MOVQ    $1, R11
	SHLQ    CX, R11
	DECQ    R11
	KMOVW   R11, K2

blockz6:
	MOVQ a+8(FP), AX
	MOVQ k+40(FP), R10
	SHLQ $4, R10
	LEAQ (R10)(R10*2), SI
	MOVQ m+24(FP), BX
	CMPQ BX, $8
	JLT  group4

group8:
	MOVQ DX, R13
	MOVQ n+32(FP), CX
	ADDQ $3, CX
	SHRQ $2, CX

g8slice:
	KMOVW K3, K1
	CMPQ  CX, $1
	JNE   g8lanes
	KMOVW K2, K1

g8lanes:
	MOVQ  AX, R14
	LEAQ  (AX)(R10*4), R9
	MOVQ  R13, R15
	MOVQ  k+40(FP), R8
	TESTQ $1, mode+72(FP)
	JNZ   g8load
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP   g8start

g8load:
	MOVQ    R13, R11
	SUBQ    DX, R11
	ADDQ    DI, R11
	VMOVUPD.Z (R11), K1, Z0
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z1
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z2
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z3
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z4
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z5
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z6
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z7

g8start:
	TESTQ $2, mode+72(FP)
	JZ    g8all

g8skip:
	VMOVUPD.Z (R15), K1, Z24
	SIGNSWAPZ(Z24, Z25)
	SKIPZERO((R14), 8(R14), g8row1)
	MADDZ((R14), 8(R14), Z24, Z25, Z8, Z9, Z0)

g8row1:
	SKIPZERO((R14)(R10*1), 8(R14)(R10*1), g8row2)
	MADDZ((R14)(R10*1), 8(R14)(R10*1), Z24, Z25, Z10, Z11, Z1)

g8row2:
	SKIPZERO((R14)(R10*2), 8(R14)(R10*2), g8row3)
	MADDZ((R14)(R10*2), 8(R14)(R10*2), Z24, Z25, Z12, Z13, Z2)

g8row3:
	SKIPZERO((R14)(SI*1), 8(R14)(SI*1), g8row4)
	MADDZ((R14)(SI*1), 8(R14)(SI*1), Z24, Z25, Z14, Z15, Z3)

g8row4:
	SKIPZERO((R9), 8(R9), g8row5)
	MADDZ((R9), 8(R9), Z24, Z25, Z16, Z17, Z4)

g8row5:
	SKIPZERO((R9)(R10*1), 8(R9)(R10*1), g8row6)
	MADDZ((R9)(R10*1), 8(R9)(R10*1), Z24, Z25, Z18, Z19, Z5)

g8row6:
	SKIPZERO((R9)(R10*2), 8(R9)(R10*2), g8row7)
	MADDZ((R9)(R10*2), 8(R9)(R10*2), Z24, Z25, Z20, Z21, Z6)

g8row7:
	SKIPZERO((R9)(SI*1), 8(R9)(SI*1), g8next)
	MADDZ((R9)(SI*1), 8(R9)(SI*1), Z24, Z25, Z22, Z23, Z7)

g8next:
	ADDQ $16, R14
	ADDQ $16, R9
	ADDQ R12, R15
	DECQ R8
	JNZ  g8skip
	JMP  g8store

g8all:
	VMOVUPD.Z (R15), K1, Z24
	SIGNSWAPZ(Z24, Z25)
	MADDZ((R14), 8(R14), Z24, Z25, Z8, Z9, Z0)
	MADDZ((R14)(R10*1), 8(R14)(R10*1), Z24, Z25, Z10, Z11, Z1)
	MADDZ((R14)(R10*2), 8(R14)(R10*2), Z24, Z25, Z12, Z13, Z2)
	MADDZ((R14)(SI*1), 8(R14)(SI*1), Z24, Z25, Z14, Z15, Z3)
	MADDZ((R9), 8(R9), Z24, Z25, Z16, Z17, Z4)
	MADDZ((R9)(R10*1), 8(R9)(R10*1), Z24, Z25, Z18, Z19, Z5)
	MADDZ((R9)(R10*2), 8(R9)(R10*2), Z24, Z25, Z20, Z21, Z6)
	MADDZ((R9)(SI*1), 8(R9)(SI*1), Z24, Z25, Z22, Z23, Z7)
	ADDQ $16, R14
	ADDQ $16, R9
	ADDQ R12, R15
	DECQ R8
	JNZ  g8all

g8store:
	MOVQ    R13, R11
	SUBQ    DX, R11
	ADDQ    DI, R11
	VMOVUPD Z0, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z1, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z2, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z3, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z4, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z5, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z6, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z7, K1, (R11)
	ADDQ    $64, R13
	DECQ    CX
	JNZ     g8slice
	LEAQ    (DI)(R12*8), DI
	LEAQ    (AX)(R10*8), AX
	SUBQ    $8, BX
	CMPQ    BX, $8
	JGE     group8

group4:
	CMPQ BX, $4
	JLT  group2
	MOVQ DX, R13
	MOVQ n+32(FP), CX
	ADDQ $3, CX
	SHRQ $2, CX

g4slice:
	KMOVW K3, K1
	CMPQ  CX, $1
	JNE   g4lanes
	KMOVW K2, K1

g4lanes:
	MOVQ  AX, R14
	MOVQ  R13, R15
	MOVQ  k+40(FP), R8
	TESTQ $1, mode+72(FP)
	JNZ   g4load
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	JMP   g4start

g4load:
	MOVQ    R13, R11
	SUBQ    DX, R11
	ADDQ    DI, R11
	VMOVUPD.Z (R11), K1, Z0
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z1
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z2
	ADDQ    R12, R11
	VMOVUPD.Z (R11), K1, Z3

g4start:
	TESTQ $2, mode+72(FP)
	JZ    g4all

g4skip:
	VMOVUPD.Z (R15), K1, Z24
	SIGNSWAPZ(Z24, Z25)
	SKIPZERO((R14), 8(R14), g4row1)
	MADDZ((R14), 8(R14), Z24, Z25, Z8, Z9, Z0)

g4row1:
	SKIPZERO((R14)(R10*1), 8(R14)(R10*1), g4row2)
	MADDZ((R14)(R10*1), 8(R14)(R10*1), Z24, Z25, Z10, Z11, Z1)

g4row2:
	SKIPZERO((R14)(R10*2), 8(R14)(R10*2), g4row3)
	MADDZ((R14)(R10*2), 8(R14)(R10*2), Z24, Z25, Z12, Z13, Z2)

g4row3:
	SKIPZERO((R14)(SI*1), 8(R14)(SI*1), g4next)
	MADDZ((R14)(SI*1), 8(R14)(SI*1), Z24, Z25, Z14, Z15, Z3)

g4next:
	ADDQ $16, R14
	ADDQ R12, R15
	DECQ R8
	JNZ  g4skip
	JMP  g4store

g4all:
	VMOVUPD.Z (R15), K1, Z24
	SIGNSWAPZ(Z24, Z25)
	MADDZ((R14), 8(R14), Z24, Z25, Z8, Z9, Z0)
	MADDZ((R14)(R10*1), 8(R14)(R10*1), Z24, Z25, Z10, Z11, Z1)
	MADDZ((R14)(R10*2), 8(R14)(R10*2), Z24, Z25, Z12, Z13, Z2)
	MADDZ((R14)(SI*1), 8(R14)(SI*1), Z24, Z25, Z14, Z15, Z3)
	ADDQ $16, R14
	ADDQ R12, R15
	DECQ R8
	JNZ  g4all

g4store:
	MOVQ    R13, R11
	SUBQ    DX, R11
	ADDQ    DI, R11
	VMOVUPD Z0, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z1, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z2, K1, (R11)
	ADDQ    R12, R11
	VMOVUPD Z3, K1, (R11)
	ADDQ    $64, R13
	DECQ    CX
	JNZ     g4slice
	LEAQ    (DI)(R12*4), DI
	LEAQ    (AX)(R10*4), AX
	SUBQ    $4, BX

group2:
	TESTQ BX, BX
	JZ    nextz6
	MOVQ  R12, R9
	CMPQ  BX, $1
	JNE   pairz6
	XORQ  R10, R10
	XORQ  R9, R9

pairz6:
	MOVQ DX, R13
	MOVQ n+32(FP), CX
	ADDQ $3, CX
	SHRQ $2, CX

g2slice:
	KMOVW K3, K1
	CMPQ  CX, $1
	JNE   g2lanes
	KMOVW K2, K1

g2lanes:
	MOVQ  AX, R14
	MOVQ  R13, R15
	MOVQ  k+40(FP), R8
	TESTQ $1, mode+72(FP)
	JNZ   g2load
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	JMP   g2start

g2load:
	MOVQ    R13, R11
	SUBQ    DX, R11
	ADDQ    DI, R11
	VMOVUPD.Z (R11), K1, Z0
	VMOVUPD.Z (R11)(R9*1), K1, Z1

g2start:
	TESTQ $2, mode+72(FP)
	JZ    g2all

g2skip:
	VMOVUPD.Z (R15), K1, Z24
	SIGNSWAPZ(Z24, Z25)
	SKIPZERO((R14), 8(R14), g2row1)
	MADDZ((R14), 8(R14), Z24, Z25, Z8, Z9, Z0)

g2row1:
	SKIPZERO((R14)(R10*1), 8(R14)(R10*1), g2next)
	MADDZ((R14)(R10*1), 8(R14)(R10*1), Z24, Z25, Z10, Z11, Z1)

g2next:
	ADDQ $16, R14
	ADDQ R12, R15
	DECQ R8
	JNZ  g2skip
	JMP  g2store

g2all:
	VMOVUPD.Z (R15), K1, Z24
	SIGNSWAPZ(Z24, Z25)
	MADDZ((R14), 8(R14), Z24, Z25, Z8, Z9, Z0)
	MADDZ((R14)(R10*1), 8(R14)(R10*1), Z24, Z25, Z10, Z11, Z1)
	ADDQ $16, R14
	ADDQ R12, R15
	DECQ R8
	JNZ  g2all

g2store:
	MOVQ    R13, R11
	SUBQ    DX, R11
	ADDQ    DI, R11
	VMOVUPD Z0, K1, (R11)
	VMOVUPD Z1, K1, (R11)(R9*1)
	ADDQ    $64, R13
	DECQ    CX
	JNZ     g2slice
	ADDQ    R12, DI
	ADDQ    R9, DI
	LEAQ    (AX)(R10*2), AX
	SUBQ    $2, BX
	JG      group2

nextz6:
	MOVQ aStride+56(FP), R11
	SHLQ $4, R11
	ADDQ R11, a+8(FP)
	MOVQ bStride+64(FP), R11
	SHLQ $4, R11
	ADDQ R11, DX
	DECQ count+48(FP)
	JNZ  blockz6

	VZEROUPPER
	RET
