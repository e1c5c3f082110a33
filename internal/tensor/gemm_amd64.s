//go:build amd64 && !purego

#include "textflag.h"

// AVX2 strip micro-kernels for the GEMM family (see gemm_amd64.go for the
// Go declarations and gemmStrip8 in matmul.go for the scalar oracle).
//
// Bitwise contract: every lane executes exactly the scalar kernel's float32
// sequence, `c += a0·b0 + a1·b1` per k pair and `c += a0·b0` for an odd last
// k — two VMULPS, one VADDPS for the pair sum, one VADDPS into the
// accumulator. A fused multiply-add rounds once where this rounds twice and
// would change result bits, so no instruction of the FMA family may ever
// appear in this file (CI greps for their mnemonics).
//
// The callers have sliced every operand in Go, so all addresses touched here
// are already bound-checked: c rows are 8 floats, a rows kcur floats, and b
// is kcur rows of 8 floats, bStride floats apart — 8 for a k-major packed
// strip, n for eight columns of a row-major B read in place.
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
