//go:build amd64 && !purego

#include "textflag.h"

// AVX2 element-wise sweeps (see sweep_amd64.go for the Go declarations, and
// hasNonFinite / ScaleSlice / addRow in ops.go for the loops they
// reproduce). The scale is one VMULPS per lane, the Go loop's float32
// multiply, and the add one VADDPS, the Go loop's float32 add; no
// instruction of the FMA family may appear in this file (CI greps for their
// mnemonics), and the registers the ABI reserves are never named (CI greps
// for those too).

DATA expMask<>+0(SB)/4, $0x7F800000
GLOBL expMask<>(SB), RODATA|NOPTR, $4

// EXPALL(off, r) leaves all ones in the lanes of r whose float at off(SI)
// has every exponent bit set (an Inf or a NaN). Y14 holds the mask.
#define EXPALL(off, r) \
	VPAND    off(SI), Y14, r \
	VPCMPEQD Y14, r, r

// func nonFiniteAVX2(s *float32, n int) bool
// 32 elements a round while they last, then 8 at a time.
TEXT ·nonFiniteAVX2(SB), NOSPLIT, $0-17
	MOVQ         s+0(FP), SI
	MOVQ         n+8(FP), CX
	VPBROADCASTD expMask<>(SB), Y14
	SHRQ         $3, CX

quad:
	CMPQ   CX, $4
	JLT    single
	EXPALL(0, Y0)
	EXPALL(32, Y1)
	EXPALL(64, Y2)
	EXPALL(96, Y3)
	VPOR   Y1, Y0, Y0
	VPOR   Y3, Y2, Y2
	VPOR   Y2, Y0, Y0
	VPTEST Y0, Y0
	JNZ    found
	ADDQ   $128, SI
	SUBQ   $4, CX
	JMP    quad

single:
	TESTQ  CX, CX
	JZ     none
	EXPALL(0, Y0)
	VPTEST Y0, Y0
	JNZ    found
	ADDQ   $32, SI
	DECQ   CX
	JMP    single

none:
	MOVB $0, ret+16(FP)
	VZEROUPPER
	RET

found:
	MOVB $1, ret+16(FP)
	VZEROUPPER
	RET

// func scaleAVX2(s *float32, n int, a float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ         s+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS a+16(FP), Y14
	SHRQ         $3, CX
	JZ           sdone

sloop:
	VMULPS  (SI), Y14, Y0
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     sloop

sdone:
	VZEROUPPER
	RET

// func addAVX2(dst, src *float32, n int)
// dst[i] = dst[i] + src[i], the running value as the add's first source
// (the Go loop's `d[i] += s[i]`), 32 elements a round while they last, then 8.
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

aquad:
	CMPQ    CX, $4
	JLT     asingle
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VADDPS  (SI), Y0, Y0
	VADDPS  32(SI), Y1, Y1
	VADDPS  64(SI), Y2, Y2
	VADDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $4, CX
	JMP     aquad

asingle:
	TESTQ   CX, CX
	JZ      adone
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JMP     asingle

adone:
	VZEROUPPER
	RET
