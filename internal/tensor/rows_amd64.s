//go:build amd64 && !purego

#include "textflag.h"

// AVX2 row kernels of attention (see rows_amd64.go for the Go declarations
// and rows.go for the loops they reproduce). Every lane runs its Go loop's
// float32 sequence: one VMULPS with the broadcast scalar as first source,
// then one VADDPS with the running value as first source. No instruction of
// the FMA family may appear in this file, and the registers the ABI
// reserves are never named (CI greps for both).
//
// A weight is skipped when its bits AND 0x7FFFFFFF are zero: exactly the
// Go loop's `p == 0` (true for ±0, false for a NaN).

// MACC(mem, acc, t): acc = acc + Y4·mem.
#define MACC(mem, acc, t) \
	VMULPS mem, Y4, t \
	VADDPS t, acc, acc

// func dotsAVX2(dst *float32, n int, x *float32, m int, kt *float32, stride int)
// Keys in blocks of 32, 16 and 8: one accumulator per 8 keys, starting at
// +0; per coordinate c, broadcast x[c] and add it times kt row c.
TEXT ·dotsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ x+16(FP), SI
	MOVQ m+24(FP), R8
	MOVQ kt+32(FP), BX
	MOVQ stride+40(FP), R9
	SHLQ $2, R9

dots32:
	CMPQ   CX, $32
	JLT    dots16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   BX, R10
	XORQ   DX, DX

d32:
	VBROADCASTSS (SI)(DX*4), Y4
	MACC((R10), Y0, Y5)
	MACC(32(R10), Y1, Y6)
	MACC(64(R10), Y2, Y7)
	MACC(96(R10), Y3, Y8)
	ADDQ         R9, R10
	INCQ         DX
	CMPQ         DX, R8
	JLT          d32
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, BX
	SUBQ         $32, CX
	JMP          dots32

dots16:
	CMPQ   CX, $16
	JLT    dots8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   BX, R10
	XORQ   DX, DX

d16:
	VBROADCASTSS (SI)(DX*4), Y4
	MACC((R10), Y0, Y5)
	MACC(32(R10), Y1, Y6)
	ADDQ         R9, R10
	INCQ         DX
	CMPQ         DX, R8
	JLT          d16
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, BX
	SUBQ         $16, CX

dots8:
	CMPQ   CX, $8
	JLT    dotsdone
	VXORPS Y0, Y0, Y0
	MOVQ   BX, R10
	XORQ   DX, DX

d8:
	VBROADCASTSS (SI)(DX*4), Y4
	MACC((R10), Y0, Y5)
	ADDQ         R9, R10
	INCQ         DX
	CMPQ         DX, R8
	JLT          d8
	VMOVUPS      Y0, (DI)

dotsdone:
	VZEROUPPER
	RET

// func addWeightedRowsAVX2(dst *float32, n int, w *float32, cnt int, rows *float32, stride int)
// Columns in blocks of 32, 16 and 8: the block of dst stays in registers
// while the cnt rows are added into it in order, each times its broadcast
// weight, a ±0 weight skipped.
TEXT ·addWeightedRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ w+16(FP), SI
	MOVQ cnt+24(FP), R8
	MOVQ rows+32(FP), BX
	MOVQ stride+40(FP), R9
	SHLQ $2, R9

wrows32:
	CMPQ    CX, $32
	JLT     wrows16
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    BX, R10
	XORQ    DX, DX

w32:
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7FFFFFFF, AX
	JZ           w32next
	VBROADCASTSS (SI)(DX*4), Y4
	MACC((R10), Y0, Y5)
	MACC(32(R10), Y1, Y6)
	MACC(64(R10), Y2, Y7)
	MACC(96(R10), Y3, Y8)

w32next:
	ADDQ    R9, R10
	INCQ    DX
	CMPQ    DX, R8
	JLT     w32
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $32, CX
	JMP     wrows32

wrows16:
	CMPQ    CX, $16
	JLT     wrows8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	MOVQ    BX, R10
	XORQ    DX, DX

w16:
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7FFFFFFF, AX
	JZ           w16next
	VBROADCASTSS (SI)(DX*4), Y4
	MACC((R10), Y0, Y5)
	MACC(32(R10), Y1, Y6)

w16next:
	ADDQ    R9, R10
	INCQ    DX
	CMPQ    DX, R8
	JLT     w16
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $16, CX

wrows8:
	CMPQ    CX, $8
	JLT     wdone
	VMOVUPS (DI), Y0
	MOVQ    BX, R10
	XORQ    DX, DX

w8:
	MOVL         (SI)(DX*4), AX
	ANDL         $0x7FFFFFFF, AX
	JZ           w8next
	VBROADCASTSS (SI)(DX*4), Y4
	MACC((R10), Y0, Y5)

w8next:
	ADDQ    R9, R10
	INCQ    DX
	CMPQ    DX, R8
	JLT     w8
	VMOVUPS Y0, (DI)

wdone:
	VZEROUPPER
	RET

// OUTER(off): rows[j] block off += Y4·x block off, the row's value as the
// add's first source.
#define OUTER(off) \
	VMULPS  off(BX)(R10*1), Y4, Y0 \
	VMOVUPS off(DI)(R10*1), Y1     \
	VADDPS  Y0, Y1, Y1             \
	VMOVUPS Y1, off(DI)(R10*1)

// func addOuterRowsAVX2(rows *float32, stride int, w *float32, cnt int, x *float32, n int, skipZero bool)
// Row by row: broadcast the row's weight (with skipZero, a ±0 weight skips
// the row) and add it times x into the row, 32 columns at a time, then 8.
TEXT ·addOuterRowsAVX2(SB), NOSPLIT, $0-49
	MOVQ    rows+0(FP), DI
	MOVQ    stride+8(FP), R9
	MOVQ    w+16(FP), SI
	MOVQ    cnt+24(FP), R8
	MOVQ    x+32(FP), BX
	MOVQ    n+40(FP), CX
	MOVBLZX skipZero+48(FP), R11
	SHLQ    $2, R9
	XORQ    DX, DX

orow:
	TESTQ R11, R11
	JZ    obroadcast
	MOVL  (SI)(DX*4), AX
	ANDL  $0x7FFFFFFF, AX
	JZ    onext

obroadcast:
	VBROADCASTSS (SI)(DX*4), Y4
	XORQ         R10, R10      // byte offset into the row and into x
	MOVQ         CX, R12       // columns left

o32:
	CMPQ R12, $32
	JLT  o8
	OUTER(0)
	OUTER(32)
	OUTER(64)
	OUTER(96)
	ADDQ $128, R10
	SUBQ $32, R12
	JMP  o32

o8:
	CMPQ R12, $8
	JLT  onext
	OUTER(0)
	ADDQ $32, R10
	SUBQ $8, R12
	JMP  o8

onext:
	ADDQ R9, DI
	INCQ DX
	CMPQ DX, R8
	JLT  orow
	VZEROUPPER
	RET
