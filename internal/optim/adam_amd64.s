//go:build amd64 && !purego

#include "textflag.h"

// AVX2 Adam (see adam_amd64.go for the Go declaration, and adamChunk in
// optim.go for the loop it reproduces).
//
// Bitwise contract: every lane runs adamChunk's float32 sequence for one
// element, operation for operation and in its order — each multiply, add,
// subtract and divide one VEX instruction that rounds. The square root is
// VSQRTPS: the Go loop's float32(math.Sqrt(float64(x))) is correctly
// rounded (53 ≥ 2·24 + 2), so it equals the single-precision root. A fused
// multiply-add rounds once where this rounds twice and would change result
// bits, so no instruction of the FMA family may appear in this file (CI
// greps for their mnemonics), and the registers the ABI reserves are never
// named (CI greps for those too).

// Byte offsets of adamConsts' fields.
#define K_B1 0
#define K_B2 4
#define K_OMB1 8
#define K_OMB2 12
#define K_C1 16
#define K_C2 20
#define K_LR 24
#define K_EPS 28
#define K_LRWD 32

// UPDATE takes g in Y0, writes m and v back and leaves
// upd = lr·(m·c1) / (sqrt(v·c2) + eps) in Y1. SI, DI, R8 and R9 point at
// θ, g, m and v; Y5–Y13 hold the constants.
#define UPDATE \
	VMULPS  (R8), Y5, Y1  \
	VMULPS  Y0, Y7, Y2    \
	VADDPS  Y2, Y1, Y1    \
	VMOVUPS Y1, (R8)      \
	VMULPS  Y0, Y8, Y2    \
	VMULPS  Y0, Y2, Y2    \
	VMULPS  (R9), Y6, Y3  \
	VADDPS  Y2, Y3, Y3    \
	VMOVUPS Y3, (R9)      \
	VMULPS  Y1, Y9, Y1    \
	VMULPS  Y3, Y10, Y3   \
	VSQRTPS Y3, Y3        \
	VADDPS  Y12, Y3, Y3   \
	VMULPS  Y1, Y11, Y1   \
	VDIVPS  Y3, Y1, Y1

#define NEXT \
	ADDQ $32, SI \
	ADDQ $32, DI \
	ADDQ $32, R8 \
	ADDQ $32, R9 \
	DECQ CX

// func adamAVX2(p, grad, m, v *float32, n int, k *adamConsts, decay bool)
TEXT ·adamAVX2(SB), NOSPLIT, $0-49
	MOVQ         p+0(FP), SI
	MOVQ         grad+8(FP), DI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), AX
	MOVBLZX      decay+48(FP), BX
	VBROADCASTSS K_B1(AX), Y5
	VBROADCASTSS K_B2(AX), Y6
	VBROADCASTSS K_OMB1(AX), Y7
	VBROADCASTSS K_OMB2(AX), Y8
	VBROADCASTSS K_C1(AX), Y9
	VBROADCASTSS K_C2(AX), Y10
	VBROADCASTSS K_LR(AX), Y11
	VBROADCASTSS K_EPS(AX), Y12
	VBROADCASTSS K_LRWD(AX), Y13
	SHRQ         $3, CX
	JZ           done
	TESTL        BX, BX
	JNZ          decay

// θ -= upd
plain:
	VMOVUPS (DI), Y0
	UPDATE
	VMOVUPS (SI), Y2
	VSUBPS  Y1, Y2, Y2
	VMOVUPS Y2, (SI)
	NEXT
	JNZ     plain
	JMP     done

// upd += lr·wd·θ, then θ -= upd
decay:
	VMOVUPS (DI), Y0
	UPDATE
	VMOVUPS (SI), Y2
	VMULPS  Y2, Y13, Y4
	VADDPS  Y4, Y1, Y1
	VSUBPS  Y1, Y2, Y2
	VMOVUPS Y2, (SI)
	NEXT
	JNZ     decay

done:
	VZEROUPPER
	RET
