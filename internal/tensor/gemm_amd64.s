//go:build amd64 && !purego

#include "textflag.h"

// AVX2 strip micro-kernels for the GEMM family and their 16-lane AVX-512 twin
// (see gemm_amd64.go for the Go declarations and gemmStrip8 in matmul.go for
// the scalar oracle), the small-k weight gradient's twin of tGemmChunk and
// the NT pack's transpose.
//
// Bitwise contract: every lane executes exactly the scalar kernel's float32
// sequence, `c += a0·b0 + a1·b1` per k pair and `c += a0·b0` for an odd last
// k — two VMULPS, one VADDPS for the pair sum, one VADDPS into the
// accumulator. A fused multiply-add rounds once where this rounds twice and
// would change result bits, so no instruction of the FMA family may ever
// appear in this file (CI greps for their mnemonics).
//
// The callers have sliced every operand in Go, so all addresses touched here
// are already bound-checked: c rows are 8 floats (16 for the ZMM kernel), a
// rows kcur floats, and b is kcur rows of 8 (16) floats, bStride floats apart
// — the strip width for a k-major packed strip, n for columns of a row-major
// B read in place.
//
// The ZMM kernel uses AVX512F instructions only (registers are zeroed with
// VPXORD: VXORPS on Z registers needs AVX512DQ). Every TEXT block that names
// a Y or Z register ends its vector work with VZEROUPPER before RET (CI
// checks it): a dirty upper state slows every SSE instruction the Go runtime
// runs after the kernel.
//
// Registers: the g register, the dynamic-linking scratch register and the
// zero vector register of the register ABI are never named (CI greps for
// their names), so AX, the one general register left, carries bStride.

// STEP(arow, acc) accumulates one C row's k pair: Y4/Y5 hold the strip's two
// B rows, DX is the k index.
#define STEP(arow, acc) \
	VBROADCASTSS (arow)(DX*4), Y6   \
	VBROADCASTSS 4(arow)(DX*4), Y7  \
	VMULPS       Y4, Y6, Y6         \
	VMULPS       Y5, Y7, Y7         \
	VADDPS       Y7, Y6, Y6         \
	VADDPS       Y6, acc, acc

// TAIL(arow, acc) is STEP for the odd last k (Y4 holds the B row).
#define TAIL(arow, acc) \
	VBROADCASTSS (arow)(DX*4), Y6 \
	VMULPS       Y4, Y6, Y6       \
	VADDPS       Y6, acc, acc

// func gemmStrip4x8AVX2(c *float32, cStride int, a *float32, aStride int, b *float32, bStride int, kcur int, seed bool)
// Four C rows (c, c+cStride, …) × one 8-wide strip; strides in elements.
TEXT ·gemmStrip4x8AVX2(SB), NOSPLIT, $0-57
	MOVQ    c+0(FP), DI
	MOVQ    cStride+8(FP), R8
	MOVQ    a+16(FP), SI
	MOVQ    aStride+24(FP), R9
	MOVQ    b+32(FP), BX
	MOVQ    bStride+40(FP), AX
	MOVQ    kcur+48(FP), CX
	SHLQ    $2, R8
	SHLQ    $2, R9
	SHLQ    $2, AX
	LEAQ    (SI)(R9*1), R10        // a row 1
	LEAQ    (SI)(R9*2), R11        // a row 2
	LEAQ    (R11)(R9*1), R12       // a row 3
	LEAQ    (DI)(R8*2), R13
	ADDQ    R8, R13                // c row 3
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	CMPB    seed+56(FP), $0
	JEQ     init4
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R8*1), Y1
	VMOVUPS (DI)(R8*2), Y2
	VMOVUPS (R13), Y3

init4:
	XORQ DX, DX
	SUBQ $1, CX                    // pairs run while DX < kcur-1
	JLE  tail4

pair4:
	VMOVUPS (BX), Y4
	VMOVUPS (BX)(AX*1), Y5
	STEP(SI, Y0)
	STEP(R10, Y1)
	STEP(R11, Y2)
	STEP(R12, Y3)
	LEAQ (BX)(AX*2), BX
	ADDQ $2, DX
	CMPQ DX, CX
	JLT  pair4

tail4:
	CMPQ DX, CX                    // DX == kcur-1: one k left
	JNE  store4
	VMOVUPS (BX), Y4
	TAIL(SI, Y0)
	TAIL(R10, Y1)
	TAIL(R11, Y2)
	TAIL(R12, Y3)

store4:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R8*1)
	VMOVUPS Y2, (DI)(R8*2)
	VMOVUPS Y3, (R13)
	VZEROUPPER
	RET

// STEPZ and TAILZ are STEP and TAIL over 16 lanes: Z4/Z5 hold the strip's
// two B rows; same instructions, same operand order, so every lane runs the
// 8-lane kernel's sequence (NaN payloads included).
#define STEPZ(arow, acc) \
	VBROADCASTSS (arow)(DX*4), Z6   \
	VBROADCASTSS 4(arow)(DX*4), Z7  \
	VMULPS       Z4, Z6, Z6         \
	VMULPS       Z5, Z7, Z7         \
	VADDPS       Z7, Z6, Z6         \
	VADDPS       Z6, acc, acc

#define TAILZ(arow, acc) \
	VBROADCASTSS (arow)(DX*4), Z6 \
	VMULPS       Z4, Z6, Z6       \
	VADDPS       Z6, acc, acc

// func gemmStrip4x16AVX512(c *float32, cStride int, a *float32, aStride int, b *float32, bStride int, kcur int, seed bool)
// gemmStrip4x8AVX2 over one 16-wide strip: four C rows in Z0–Z3.
TEXT ·gemmStrip4x16AVX512(SB), NOSPLIT, $0-57
	MOVQ    c+0(FP), DI
	MOVQ    cStride+8(FP), R8
	MOVQ    a+16(FP), SI
	MOVQ    aStride+24(FP), R9
	MOVQ    b+32(FP), BX
	MOVQ    bStride+40(FP), AX
	MOVQ    kcur+48(FP), CX
	SHLQ    $2, R8
	SHLQ    $2, R9
	SHLQ    $2, AX
	LEAQ    (SI)(R9*1), R10        // a row 1
	LEAQ    (SI)(R9*2), R11        // a row 2
	LEAQ    (R11)(R9*1), R12       // a row 3
	LEAQ    (DI)(R8*2), R13
	ADDQ    R8, R13                // c row 3
	VPXORD  Z0, Z0, Z0
	VPXORD  Z1, Z1, Z1
	VPXORD  Z2, Z2, Z2
	VPXORD  Z3, Z3, Z3
	CMPB    seed+56(FP), $0
	JEQ     init16
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(R8*1), Z1
	VMOVUPS (DI)(R8*2), Z2
	VMOVUPS (R13), Z3

init16:
	XORQ DX, DX
	SUBQ $1, CX                    // pairs run while DX < kcur-1
	JLE  tail16

pair16:
	VMOVUPS (BX), Z4
	VMOVUPS (BX)(AX*1), Z5
	STEPZ(SI, Z0)
	STEPZ(R10, Z1)
	STEPZ(R11, Z2)
	STEPZ(R12, Z3)
	LEAQ (BX)(AX*2), BX
	ADDQ $2, DX
	CMPQ DX, CX
	JLT  pair16

tail16:
	CMPQ DX, CX                    // DX == kcur-1: one k left
	JNE  store16
	VMOVUPS (BX), Z4
	TAILZ(SI, Z0)
	TAILZ(R10, Z1)
	TAILZ(R11, Z2)
	TAILZ(R12, Z3)

store16:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(R8*1)
	VMOVUPS Z2, (DI)(R8*2)
	VMOVUPS Z3, (R13)
	VZEROUPPER
	RET

// func gemmStrip1x8AVX2(c *float32, a *float32, b *float32, bStride int, kcur int, seed bool)
// The one-row remainder of gemmStrip4x8AVX2.
TEXT ·gemmStrip1x8AVX2(SB), NOSPLIT, $0-41
	MOVQ    c+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), BX
	MOVQ    bStride+24(FP), AX
	MOVQ    kcur+32(FP), CX
	SHLQ    $2, AX
	VXORPS  Y0, Y0, Y0
	CMPB    seed+40(FP), $0
	JEQ     init1
	VMOVUPS (DI), Y0

init1:
	XORQ DX, DX
	SUBQ $1, CX
	JLE  tail1

pair1:
	VMOVUPS (BX), Y4
	VMOVUPS (BX)(AX*1), Y5
	STEP(SI, Y0)
	LEAQ (BX)(AX*2), BX
	ADDQ $2, DX
	CMPQ DX, CX
	JLT  pair1

tail1:
	CMPQ DX, CX
	JNE  store1
	VMOVUPS (BX), Y4
	TAIL(SI, Y0)

store1:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func tGemm4x8AVX2(c *float32, n int, a *float32, m int, b *float32, kcur int, cols int)
// The small-k weight gradient C += Aᵀ·B (tGemmVecChunk) for four C rows and
// cols columns, cols a positive multiple of 8, over one k block of kcur ≥ 1
// A and B rows: a is Aᵀ's four rows at the block's first k (A row stride m),
// b and c are at column 0 (row stride n). Per 8-column strip, lane j of
// accumulator r is tGemmChunk's s for element (r, j): it starts at +0 and
// adds a[kk·m + r]·b[kk·n + j] in plain k order, one VMULPS and one VADDPS
// a step; then C += s. Four sums of a strip stay in Y0–Y3.
TEXT ·tGemm4x8AVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ m+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ kcur+40(FP), CX
	MOVQ cols+48(FP), DX
	SHLQ $2, R8                    // c and b row stride in bytes
	SHLQ $2, R9                    // a row stride in bytes
	LEAQ (R8)(R8*2), R12           // three c rows

stripT:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   BX, R11
	MOVQ   CX, AX

kloopT:
	VMOVUPS      (R11), Y4
	VBROADCASTSS (R10), Y5
	VBROADCASTSS 4(R10), Y6
	VBROADCASTSS 8(R10), Y7
	VBROADCASTSS 12(R10), Y8
	VMULPS       Y4, Y5, Y5
	VMULPS       Y4, Y6, Y6
	VMULPS       Y4, Y7, Y7
	VMULPS       Y4, Y8, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         R9, R10
	ADDQ         R8, R11
	DECQ         AX
	JNZ          kloopT

	VMOVUPS (DI), Y5
	VMOVUPS (DI)(R8*1), Y6
	VMOVUPS (DI)(R8*2), Y7
	VMOVUPS (DI)(R12*1), Y8
	VADDPS  Y0, Y5, Y5
	VADDPS  Y1, Y6, Y6
	VADDPS  Y2, Y7, Y7
	VADDPS  Y3, Y8, Y8
	VMOVUPS Y5, (DI)
	VMOVUPS Y6, (DI)(R8*1)
	VMOVUPS Y7, (DI)(R8*2)
	VMOVUPS Y8, (DI)(R12*1)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, DX
	JNZ     stripT
	VZEROUPPER
	RET

// func gemmPackNT8x8AVX2(dst *float32, dstStride int, src *float32, k int, blocks int)
// Packs eight whole columns of gemmNT's Bᵀ panel (gemmPackStripNTChunk),
// blocks·8 k at a time: src is B's row of the first column at the panel's
// first k (row stride k), dst the columns' first lane in their strip at the
// same k (row stride dstStride: 8, or 16 in a wide strip). Per block, eight
// B row loads of 8 k, an 8×8 transpose in 24 shuffles (unpack pairs of rows,
// shuffle pairs of pairs, swap 128-bit halves) and eight 8-float stores, one
// per k: the bytes the scalar scatter stores, moved by bit-exact shuffles.
TEXT ·gemmPackNT8x8AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R11
	MOVQ src+16(FP), SI
	MOVQ k+24(FP), R8
	MOVQ blocks+32(FP), CX
	SHLQ $2, R8                    // B row stride in bytes
	LEAQ (R8)(R8*2), R9            // three B rows
	LEAQ (SI)(R8*4), R10           // B row 4
	SHLQ $2, R11                   // dst row stride in bytes
	LEAQ (R11)(R11*2), R12         // three dst rows

packNT:
	VMOVUPS    (SI), Y0
	VMOVUPS    (SI)(R8*1), Y1
	VMOVUPS    (SI)(R8*2), Y2
	VMOVUPS    (SI)(R9*1), Y3
	VMOVUPS    (R10), Y4
	VMOVUPS    (R10)(R8*1), Y5
	VMOVUPS    (R10)(R8*2), Y6
	VMOVUPS    (R10)(R9*1), Y7
	VUNPCKLPS  Y1, Y0, Y8          // rows 0,1 interleaved: k 0,1 | 4,5
	VUNPCKHPS  Y1, Y0, Y9          // k 2,3 | 6,7
	VUNPCKLPS  Y3, Y2, Y0          // rows 2,3
	VUNPCKHPS  Y3, Y2, Y1
	VUNPCKLPS  Y5, Y4, Y2          // rows 4,5
	VUNPCKHPS  Y5, Y4, Y3
	VUNPCKLPS  Y7, Y6, Y4          // rows 6,7
	VUNPCKHPS  Y7, Y6, Y5
	VSHUFPS    $0x44, Y0, Y8, Y6   // rows 0–3 at k 0 | 4
	VSHUFPS    $0xEE, Y0, Y8, Y7   // k 1 | 5
	VSHUFPS    $0x44, Y1, Y9, Y10  // k 2 | 6
	VSHUFPS    $0xEE, Y1, Y9, Y11  // k 3 | 7
	VSHUFPS    $0x44, Y4, Y2, Y12  // rows 4–7 at k 0 | 4
	VSHUFPS    $0xEE, Y4, Y2, Y13  // k 1 | 5
	VSHUFPS    $0x44, Y5, Y3, Y14  // k 2 | 6
	VSHUFPS    $0xEE, Y5, Y3, Y8   // k 3 | 7
	VPERM2F128 $0x20, Y12, Y6, Y0  // rows 0–7 at k 0
	VPERM2F128 $0x20, Y13, Y7, Y1
	VPERM2F128 $0x20, Y14, Y10, Y2
	VPERM2F128 $0x20, Y8, Y11, Y3
	VPERM2F128 $0x31, Y12, Y6, Y4  // rows 0–7 at k 4
	VPERM2F128 $0x31, Y13, Y7, Y5
	VPERM2F128 $0x31, Y14, Y10, Y6
	VPERM2F128 $0x31, Y8, Y11, Y7
	LEAQ       (DI)(R11*4), R13    // dst row 4
	VMOVUPS    Y0, (DI)
	VMOVUPS    Y1, (DI)(R11*1)
	VMOVUPS    Y2, (DI)(R11*2)
	VMOVUPS    Y3, (DI)(R12*1)
	VMOVUPS    Y4, (R13)
	VMOVUPS    Y5, (R13)(R11*1)
	VMOVUPS    Y6, (R13)(R11*2)
	VMOVUPS    Y7, (R13)(R12*1)
	ADDQ       $32, SI
	ADDQ       $32, R10
	LEAQ       (DI)(R11*8), DI
	DECQ       CX
	JNZ        packNT
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
// Low half of XCR0; only valid when CPUID reports OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
