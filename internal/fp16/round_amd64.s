//go:build amd64 && !purego

#include "textflag.h"

// F16C rounding kernels (see round_amd64.go for the Go declarations, and
// roundChunk / accumClearChunk in fp16.go for the loops they reproduce).
//
// Bitwise contract: every lane is Round of its input. VCVTPS2PH with
// immediate 0 rounds to nearest even whatever MXCSR says, overflows to ±Inf
// from 65520 up, keeps the sign of zeros and underflows, and rounds float32
// subnormals to ±0; VCVTPH2PS widens the half back exactly. Only NaNs come
// out differently — with their payload's top bits — so an unordered compare
// picks them out and a blend writes sign|0x7FC00000 there, Round's quiet
// NaN. The accumulating kernel adds with one VADDPS (rounds) before that,
// as the Go loop's float32 add does. No instruction of the FMA family may
// appear in this file (CI greps for their mnemonics), and the registers the
// ABI reserves are never named (CI greps for those too).

DATA signMask<>+0(SB)/4, $0x80000000
GLOBL signMask<>(SB), RODATA|NOPTR, $4

DATA quietNaN<>+0(SB)/4, $0x7FC00000
GLOBL quietNaN<>(SB), RODATA|NOPTR, $4

// ROUND(x, t, out) sets out to Round of x's eight lanes; x, t and X12 are
// clobbered. Y14 holds the sign mask and Y13 the quiet NaN in every lane.
#define ROUND(x, t, out) \
	VCVTPS2PH $0, x, X12       \
	VCVTPH2PS X12, out         \
	VANDPS    Y14, x, t        \
	VORPS     Y13, t, t        \
	VCMPPS    $3, x, x, x      \
	VBLENDVPS x, t, out, out

#define CONSTS \
	VBROADCASTSS signMask<>(SB), Y14 \
	VBROADCASTSS quietNaN<>(SB), Y13

// func roundAVX2(dst, src *float32, n int)
TEXT ·roundAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	CONSTS
	SHRQ $3, CX
	JZ   rdone

rloop:
	VMOVUPS (SI), Y0
	ROUND(Y0, Y1, Y2)
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     rloop

rdone:
	VZEROUPPER
	RET

// func accumRoundClearAVX2(acc, grad *float32, n int)
TEXT ·accumRoundClearAVX2(SB), NOSPLIT, $0-24
	MOVQ acc+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ n+16(FP), CX
	CONSTS
	VXORPS Y11, Y11, Y11
	SHRQ   $3, CX
	JZ     adone

aloop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	ROUND(Y0, Y1, Y2)
	VMOVUPS Y2, (DI)
	VMOVUPS Y11, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     aloop

adone:
	VZEROUPPER
	RET

// The half-word kernels (see halves.go). VCVTPS2PH writes eight halves, 16
// bytes, in element order, which on this little-endian host is four words of
// element 2k in the low half and 2k+1 in the high. VCVTPH2PS widens exactly;
// the fold adds with VADDPS, the running sum as its first source, so a NaN
// there is the one returned, as tensor.OrderedAdd returns it. The pack
// widens what it converted and compares the bits with its input as
// integers, so NaNs compare by their payload; it runs upwards and the fold
// downwards, so both may work in place (halves.go).

// func packHalvesAVX2(dst *uint32, src *float32, n int) int
//
// Returns how many elements it packed: n, or the start of the first block
// holding an element the conversion does not carry exactly (off the grid, or
// a signalling NaN, which it quiets). That block is left unwritten.
TEXT ·packHalvesAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

ploop:
	CMPQ      AX, CX
	JGE       pdone
	VMOVUPS   (SI)(AX*4), Y0
	VCVTPS2PH $0, Y0, X1
	VCVTPH2PS X1, Y2
	VPCMPEQD  Y0, Y2, Y2
	VPMOVMSKB Y2, DX
	CMPL      DX, $-1
	JNE       pdone
	VMOVDQU   X1, (DI)(AX*2)
	ADDQ      $8, AX
	JMP       ploop

pdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func sumHalvesAVX2(dst *float32, a, b, c *uint32, n int)
//
// dst[i] = (a_i + b_i) [+ c_i] for i < n, n a multiple of 8, from the top
// block down; c nil means no third operand. AX is the block's element
// index: its words start 2·AX bytes into an operand, its floats 4·AX.
TEXT ·sumHalvesAVX2(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  c+24(FP), BX
	MOVQ  n+32(FP), AX
	TESTQ BX, BX
	JZ    s2loop

s3loop:
	SUBQ      $8, AX
	JLT       sdone
	VCVTPH2PS (SI)(AX*2), Y0
	VCVTPH2PS (DX)(AX*2), Y1
	VCVTPH2PS (BX)(AX*2), Y2
	VADDPS    Y1, Y0, Y0
	VADDPS    Y2, Y0, Y0
	VMOVUPS   Y0, (DI)(AX*4)
	JMP       s3loop

s2loop:
	SUBQ      $8, AX
	JLT       sdone
	VCVTPH2PS (SI)(AX*2), Y0
	VCVTPH2PS (DX)(AX*2), Y1
	VADDPS    Y1, Y0, Y0
	VMOVUPS   Y0, (DI)(AX*4)
	JMP       s2loop

sdone:
	VZEROUPPER
	RET
