//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twins of the GELU loops and of a softmax row's exponent pass (see
// exp_amd64.go for the Go declarations, and geluEval / geluDeriv /
// expShifted in ops.go for the loops they reproduce). Four float32 inputs a
// round, widened to float64 lanes; every lane executes, operation for
// operation, what the Go loop executes for its element:
//
//   - the exponential is the non-FMA instruction sequence of Go's
//     math/exp_amd64.s (the plain-range path: no overflow, no denormal
//     result), whose notice follows;
//   - GELU's tanh is math/tanh.go's three branches — |u| > MAXLOG/2 gives
//     ±1, |u| ≥ 0.625 gives 1 − 2/(e^{2|u|} + 1) with u's sign, smaller |u|
//     the rational form, u = ±0 itself — each computed in all four lanes
//     unless no lane takes it, and blended in the switch's order;
//   - GELU's value and derivative are ops.go's expressions in Go's
//     left-to-right order, rounded to float32 by VCVTPD2PS.
//
// No instruction of the FMA family may appear in this file (CI greps for
// their mnemonics): on an FMA host math.Exp takes its fused path, and the
// kernels still equal the Go loops there because the float32 results agree
// under both sequences on every input the kernels take (the exhaustive
// sweeps in exp_test.go). A group of four holding an Inf or a NaN, or a
// softmax argument outside [−708, 708], is left to the Go loop: each
// kernel returns how many elements it finished, a multiple of 4 that stops
// at the first such group. The registers the ABI reserves are never named
// (CI greps for those too).

// The method is based on a paper by Naoki Shibata: "Efficient evaluation
// methods of elementary functions suitable for SIMD computation", Proc.
// of International Supercomputing Conference 2010 (ISC'10), pp. 25 -- 32
// (May 2010). The paper is available at
// https://link.springer.com/article/10.1007/s00450-010-0108-2
//
// The original code and the constants below are from the author's
// implementation available at http://freshmeat.net/projects/sleef.
// The README file says, "The software is in public domain.
// You can use the software without any obligation."
//
// The exponential below is Go's math/exp_amd64.s (Copyright 2010 The Go
// Authors; BSD-style license, see Go's LICENSE file), its non-FMA path
// widened to four lanes.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// Each constant fills 32 bytes, one copy per lane, so it can be a packed
// memory operand.
#define K4(off, v) \
	DATA k<>+(off)(SB)/8, v      \
	DATA k<>+(off+8)(SB)/8, v    \
	DATA k<>+(off+16)(SB)/8, v   \
	DATA k<>+(off+24)(SB)/8, v

// math/exp_amd64.s
K4(0, $LOG2E)
K4(32, $LN2U)
K4(64, $LN2L)
K4(96, $0.0625)
K4(128, $2.4801587301587301587e-5)
K4(160, $1.9841269841269841270e-4)
K4(192, $1.3888888888888888889e-3)
K4(224, $8.3333333333333333333e-3)
K4(256, $4.1666666666666666667e-2)
K4(288, $1.6666666666666666667e-1)
K4(320, $0.5)
K4(352, $1.0)
K4(384, $2.0)
K4(416, $0x3FF)
// math/tanh.go: tanhP, tanhQ, 0.625 and MAXLOG/2
K4(448, $-9.64399179425052238628e-1)
K4(480, $-9.92877231001918586564e1)
K4(512, $-1.61468768441708447952e3)
K4(544, $1.12811678491632931402e2)
K4(576, $2.23548839060100448583e3)
K4(608, $4.84406305325125486048e3)
K4(640, $0.625)
K4(672, $44.014845965556527147994)
// ops.go: geluC, 0.044715 and the constant 3*0.044715 folds to
K4(704, $0.7978845608028654)
K4(736, $0.044715)
K4(768, $0.134145)
// sign and magnitude masks
K4(800, $0x8000000000000000)
K4(832, $0x7FFFFFFFFFFFFFFF)
// expShifted's range: the plain path of math.Exp, with room to spare
K4(864, $-708.0)
K4(896, $708.0)
GLOBL k<>(SB), RODATA|NOPTR, $928

#define kLOG2E k<>+0(SB)
#define kLN2U k<>+32(SB)
#define kLN2L k<>+64(SB)
#define kSIXTEENTH k<>+96(SB)
#define kE7 k<>+128(SB)
#define kE6 k<>+160(SB)
#define kE5 k<>+192(SB)
#define kE4 k<>+224(SB)
#define kE3 k<>+256(SB)
#define kE2 k<>+288(SB)
#define kHALF k<>+320(SB)
#define kONE k<>+352(SB)
#define kTWO k<>+384(SB)
#define kBIAS k<>+416(SB)
#define kP0 k<>+448(SB)
#define kP1 k<>+480(SB)
#define kP2 k<>+512(SB)
#define kQ0 k<>+544(SB)
#define kQ1 k<>+576(SB)
#define kQ2 k<>+608(SB)
#define kTANHLO k<>+640(SB)
#define kTANHHI k<>+672(SB)
#define kGELUC k<>+704(SB)
#define kGELUA k<>+736(SB)
#define kGELUA3 k<>+768(SB)
#define kSIGN k<>+800(SB)
#define kABS k<>+832(SB)
#define kEXPLO k<>+864(SB)
#define kEXPHI k<>+896(SB)

DATA expMask32<>+0(SB)/4, $0x7F800000
GLOBL expMask32<>(SB), RODATA|NOPTR, $4

// VCMPPD predicates (ordered: a NaN lane compares false).
#define EQ 0x00
#define LE 0x02
#define GE 0x0D
#define GT 0x0E

// EXP replaces Y4 by exp(Y4), lane by lane, as math/exp_amd64.s's non-FMA
// path does for an argument whose result is a normal float64 (its range
// checks are the callers'). Clobbers Y5, Y6, Y7; X5 carries the exponent.
#define EXP \
	VMULPD     kLOG2E, Y4, Y5  \
	VCVTPD2DQY Y5, X5          \
	VCVTDQ2PD  X5, Y6          \
	VMULPD     kLN2U, Y6, Y7   \
	VSUBPD     Y7, Y4, Y4      \
	VMULPD     kLN2L, Y6, Y7   \
	VSUBPD     Y7, Y4, Y4      \
	VMULPD     kSIXTEENTH, Y4, Y4 \
	VMULPD     kE7, Y4, Y6     \
	VADDPD     kE6, Y6, Y6     \
	VMULPD     Y4, Y6, Y6      \
	VADDPD     kE5, Y6, Y6     \
	VMULPD     Y4, Y6, Y6      \
	VADDPD     kE4, Y6, Y6     \
	VMULPD     Y4, Y6, Y6      \
	VADDPD     kE3, Y6, Y6     \
	VMULPD     Y4, Y6, Y6      \
	VADDPD     kE2, Y6, Y6     \
	VMULPD     Y4, Y6, Y6      \
	VADDPD     kHALF, Y6, Y6   \
	VMULPD     Y4, Y6, Y6      \
	VADDPD     kONE, Y6, Y6    \
	VMULPD     Y6, Y4, Y4      \
	VADDPD     kTWO, Y4, Y6    \
	VMULPD     Y6, Y4, Y4      \
	VADDPD     kTWO, Y4, Y6    \
	VMULPD     Y6, Y4, Y4      \
	VADDPD     kTWO, Y4, Y6    \
	VMULPD     Y6, Y4, Y4      \
	VADDPD     kTWO, Y4, Y6    \
	VMULPD     Y6, Y4, Y4      \
	VADDPD     kONE, Y4, Y4    \
	VPMOVSXDQ  X5, Y6          \
	VPADDQ     kBIAS, Y6, Y6   \
	VPSLLQ     $52, Y6, Y6     \
	VMULPD     Y6, Y4, Y4

// GELU takes x in Y0 (float64 lanes) and leaves th = tanh(u),
// u = geluC·(x + 0.044715·x·x·x), in Y5, 0.5·x in Y6, 1 + th in Y7 and the
// value 0.5·x·(1 + th) rounded to float32 in X8. A branch of math.Tanh that
// no lane of the group takes is skipped: the exponential when every |u| is
// under 0.625 (nearly every group of a freshly initialised GPT's FC1
// output), the rational form when none is. Clobbers Y1–Y4, Y9, Y10, Y12 and DX.
#define GELU \
	VMULPD     kGELUA, Y0, Y1  \
	VMULPD     Y0, Y1, Y1      \
	VMULPD     Y0, Y1, Y1      \
	VADDPD     Y1, Y0, Y1      \
	VMULPD     kGELUC, Y1, Y1  \
	VANDPD     kABS, Y1, Y2    \
	VANDPD     kSIGN, Y1, Y3   \
	VCMPPD     $GE, kTANHLO, Y2, Y12 \
	VMOVMSKPD  Y12, DX         \
	TESTL      DX, DX          \
	JZ         small           \
	VADDPD     Y2, Y2, Y4      \
	EXP                        \
	VADDPD     kONE, Y4, Y4    \
	VMOVUPD    kTWO, Y5        \
	VDIVPD     Y4, Y5, Y4      \
	VMOVUPD    kONE, Y5        \
	VSUBPD     Y4, Y5, Y4      \
	VXORPD     Y3, Y4, Y4      \
	VCMPPD     $GT, kTANHHI, Y2, Y9 \
	VORPD      kONE, Y3, Y10   \
	VBLENDVPD  Y9, Y10, Y4, Y4 \
	VMOVAPD    Y4, Y5          \
	CMPL       DX, $15         \
	JEQ        value           \
small:                         \
	VMULPD     Y1, Y1, Y5      \
	VMULPD     kP0, Y5, Y6     \
	VADDPD     kP1, Y6, Y6     \
	VMULPD     Y5, Y6, Y6      \
	VADDPD     kP2, Y6, Y6     \
	VADDPD     kQ0, Y5, Y7     \
	VMULPD     Y5, Y7, Y7      \
	VADDPD     kQ1, Y7, Y7     \
	VMULPD     Y5, Y7, Y7      \
	VADDPD     kQ2, Y7, Y7     \
	VMULPD     Y5, Y1, Y5      \
	VMULPD     Y6, Y5, Y5      \
	VDIVPD     Y7, Y5, Y5      \
	VADDPD     Y5, Y1, Y5      \
	VXORPD     Y9, Y9, Y9      \
	VCMPPD     $EQ, Y9, Y1, Y9 \
	VBLENDVPD  Y9, Y1, Y5, Y5  \
	VBLENDVPD  Y12, Y4, Y5, Y5 \
value:                         \
	VMULPD     kHALF, Y0, Y6   \
	VADDPD     kONE, Y5, Y7    \
	VMULPD     Y7, Y6, Y8      \
	VCVTPD2PSY Y8, X8

// FINITE4 jumps to done unless all four float32s at (SI)(AX*4) are finite,
// else widens them into Y0. X14 holds the exponent mask.
#define FINITE4 \
	VMOVUPS    (SI)(AX*4), X0  \
	VPAND      X14, X0, X1     \
	VPCMPEQD   X14, X1, X1     \
	VPTEST     X1, X1          \
	JNZ        done            \
	VCVTPS2PD  X0, Y0

// func geluEvalAVX2(x *float32, n int) int
TEXT ·geluEvalAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	XORQ         AX, AX
	VPBROADCASTD expMask32<>(SB), X14

loop:
	CMPQ    AX, CX
	JGE     done
	FINITE4
	GELU
	VMOVUPS X8, (SI)(AX*4)
	ADDQ    $4, AX
	JMP     loop

done:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// func geluDerivAVX2(x, d *float32, n int) int
// The derivative is 0.5·(1 + th) + 0.5·x·(1 − th·th)·du with
// du = geluC·(1 + 3·0.044715·x·x).
TEXT ·geluDerivAVX2(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         d+8(FP), DI
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	VPBROADCASTD expMask32<>(SB), X14

loop:
	CMPQ       AX, CX
	JGE        done
	FINITE4
	GELU
	VMOVUPS    X8, (SI)(AX*4)
	VMULPD     kHALF, Y7, Y9
	VMULPD     Y5, Y5, Y10
	VMOVUPD    kONE, Y11
	VSUBPD     Y10, Y11, Y10
	VMULPD     Y10, Y6, Y10
	VMULPD     kGELUA3, Y0, Y11
	VMULPD     Y0, Y11, Y11
	VADDPD     kONE, Y11, Y11
	VMULPD     kGELUC, Y11, Y11
	VMULPD     Y11, Y10, Y10
	VADDPD     Y10, Y9, Y9
	VCVTPD2PSY Y9, X9
	VMOVUPS    X9, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        loop

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func expShiftedAVX2(s *float32, n int, shift float32) int
// s[j] = float32(exp(float64(s[j] − shift))): the float32 subtraction, the
// widening, the exponential, the rounding.
TEXT ·expShiftedAVX2(SB), NOSPLIT, $0-32
	MOVQ         s+0(FP), SI
	MOVQ         n+8(FP), CX
	XORQ         AX, AX
	VBROADCASTSS shift+16(FP), X13

loop:
	CMPQ       AX, CX
	JGE        done
	VMOVUPS    (SI)(AX*4), X0
	VSUBPS     X13, X0, X0
	VCVTPS2PD  X0, Y4
	VCMPPD     $GE, kEXPLO, Y4, Y1
	VCMPPD     $LE, kEXPHI, Y4, Y2
	VANDPD     Y2, Y1, Y1
	VMOVMSKPD  Y1, DX
	CMPL       DX, $15
	JNE        done
	EXP
	VCVTPD2PSY Y4, X4
	VMOVUPS    X4, (SI)(AX*4)
	ADDQ       $4, AX
	JMP        loop

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
