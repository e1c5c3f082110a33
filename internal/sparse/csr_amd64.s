//go:build amd64 && !purego

#include "textflag.h"

// AVX2 CSR kernels (see csr_amd64.go for the Go declarations, and
// spmmtChunk / sddmmChunk in csr.go for the Go chains they reproduce).
//
// Bitwise contract: every lane is one output and runs exactly its Go chain's
// float32 sequence — multiply (VMULPS, rounds), then add into the lane's
// accumulator (VADDPS, rounds), in the chain's order. A fused multiply-add
// rounds once where this rounds twice and would change result bits, so no
// instruction of the FMA family may ever appear in this file (CI greps for
// their mnemonics). Nor may a legacy-SSE instruction: mixed with the YMM
// code it costs about a thousand cycles a call on some Intel cores.
//
// SpMMᵀ: one call computes one sparse row j's outputs for 8·g consecutive
// batch rows i, C[i, j] = Σ_p val[p]·Bᵀ[col[p], i], in g YMM accumulators:
// per nonzero, broadcast val[p] and multiply it into the feature-major
// operand's row segment Bᵀ[col[p], i:i+8g]. The callers hand a C pointer
// whose 8·g strided elements (stride ldc) and a Bᵀ pointer whose row
// segments lie inside Go slices they have cut; the one thing checked here is
// each column index, against k (the rows of Bᵀ): an out-of-range index
// returns ok = false before any memory it names is read.

// ROW loads the next nonzero: BX walks val, DX walks col, SI is Bᵀ at the
// call's first batch row, R9 the Bᵀ row stride in elements, R10 = k. It
// leaves the row segment's address in R12 and val[p] in every lane of Y6.
#define ROW(bad) \
	MOVL         (DX), R11          \
	CMPQ         R11, R10           \
	JAE          bad                \
	IMULQ        R9, R11            \
	LEAQ         (SI)(R11*4), R12   \
	VBROADCASTSS (BX), Y6

// MAC(off, acc, tmp) adds val[p]·Bᵀ[col[p], off/4 : off/4+8] into acc.
#define MAC(off, acc, tmp) \
	VMULPS off(R12), Y6, tmp \
	VADDPS tmp, acc, acc

// STORE8(acc, xacc) writes acc's eight lanes to C at DI, DI+ldc, …, stride
// R8 bytes (R13 = 3·R8), and leaves DI eight C rows further on.
#define STORE8(acc, xacc) \
	VMOVSS       xacc, (DI)             \
	VEXTRACTPS   $1, xacc, (DI)(R8*1)   \
	VEXTRACTPS   $2, xacc, (DI)(R8*2)   \
	VEXTRACTPS   $3, xacc, (DI)(R13*1)  \
	LEAQ         (DI)(R8*4), DI         \
	VEXTRACTF128 $1, acc, X14           \
	VMOVSS       X14, (DI)              \
	VEXTRACTPS   $1, X14, (DI)(R8*1)    \
	VEXTRACTPS   $2, X14, (DI)(R8*2)    \
	VEXTRACTPS   $3, X14, (DI)(R13*1)   \
	LEAQ         (DI)(R8*4), DI

// LOAD loads the common arguments; CX is the nonzero count.
#define LOAD \
	MOVQ c+0(FP), DI         \
	MOVQ ldc+8(FP), R8       \
	MOVQ bt+16(FP), SI       \
	MOVQ ldb+24(FP), R9      \
	MOVQ k+32(FP), R10       \
	MOVQ val_base+40(FP), BX \
	MOVQ val_len+48(FP), CX  \
	MOVQ col_base+64(FP), DX \
	SHLQ $2, R8              \
	LEAQ (R8)(R8*2), R13

// TBLOCK loads the arguments of the SpMM block kernels (tspmmBlock*, at
// the end of the file): DI is ct at feature lo, R8 the row stride in bytes,
// SI bt's row j, BX val, DX col, R9 the cursor pairs, R10 = lo, R12 = k,
// CX = j.
#define TBLOCK \
	MOVQ ct+0(FP), DI   \
	MOVQ ld+8(FP), R8   \
	MOVQ bt+16(FP), SI  \
	MOVQ val+24(FP), BX \
	MOVQ col+32(FP), DX \
	MOVQ cur+40(FP), R9 \
	MOVQ lo+56(FP), R10 \
	MOVQ k+64(FP), R12  \
	SHLQ $2, R8         \
	XORQ CX, CX

// func spmmtCols48AVX2(c *float32, ldc int, bt *float32, ldb, k int, val []float32, col []int32) (ok bool)
TEXT ·spmmtCols48AVX2(SB), NOSPLIT, $0-89
	LOAD
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	TESTQ  CX, CX
	JEQ    store48

loop48:
	ROW(bad48)
	MAC(0, Y0, Y8)
	MAC(32, Y1, Y9)
	MAC(64, Y2, Y10)
	MAC(96, Y3, Y11)
	MAC(128, Y4, Y12)
	MAC(160, Y5, Y13)
	ADDQ $4, BX
	ADDQ $4, DX
	DECQ CX
	JNZ  loop48

store48:
	STORE8(Y0, X0)
	STORE8(Y1, X1)
	STORE8(Y2, X2)
	STORE8(Y3, X3)
	STORE8(Y4, X4)
	STORE8(Y5, X5)
	VZEROUPPER
	MOVB $1, ok+88(FP)
	RET

bad48:
	VZEROUPPER
	MOVB $0, ok+88(FP)
	RET

// func spmmtCols32AVX2(c *float32, ldc int, bt *float32, ldb, k int, val []float32, col []int32) (ok bool)
TEXT ·spmmtCols32AVX2(SB), NOSPLIT, $0-89
	LOAD
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ  CX, CX
	JEQ    store32

loop32:
	ROW(bad32)
	MAC(0, Y0, Y8)
	MAC(32, Y1, Y9)
	MAC(64, Y2, Y10)
	MAC(96, Y3, Y11)
	ADDQ $4, BX
	ADDQ $4, DX
	DECQ CX
	JNZ  loop32

store32:
	STORE8(Y0, X0)
	STORE8(Y1, X1)
	STORE8(Y2, X2)
	STORE8(Y3, X3)
	VZEROUPPER
	MOVB $1, ok+88(FP)
	RET

bad32:
	VZEROUPPER
	MOVB $0, ok+88(FP)
	RET

// func spmmtCols8AVX2(c *float32, ldc int, bt *float32, ldb, k int, val []float32, col []int32) (ok bool)
TEXT ·spmmtCols8AVX2(SB), NOSPLIT, $0-89
	LOAD
	VXORPS Y0, Y0, Y0
	TESTQ  CX, CX
	JEQ    store8

loop8:
	ROW(bad8)
	MAC(0, Y0, Y8)
	ADDQ $4, BX
	ADDQ $4, DX
	DECQ CX
	JNZ  loop8

store8:
	STORE8(Y0, X0)
	VZEROUPPER
	MOVB $1, ok+88(FP)
	RET

bad8:
	VZEROUPPER
	MOVB $0, ok+88(FP)
	RET

// SDDMM: one call computes sixteen sampled dots of one S row, lane l being
// Σ_x a[x]·B[idx[l] + x] for x in [0, k) — sixteen independent chains in two
// YMM accumulators, each B element fetched by VGATHERDPS. idx holds element
// offsets (column·k) the caller has checked against B's extent, so every
// gathered address lies inside B; unused lanes carry offset 0.

// func sddmmLanes16AVX2(out *[16]float32, a *float32, b *float32, idx *[16]int32, k int)
TEXT ·sddmmLanes16AVX2(SB), NOSPLIT, $0-40
	MOVQ    out+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), BX
	MOVQ    idx+24(FP), DX
	MOVQ    k+32(FP), CX
	VMOVDQU (DX), Y4
	VMOVDQU 32(DX), Y5
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	TESTQ   CX, CX
	JEQ     storeSD

loopSD:
	VPCMPEQD     Y6, Y6, Y6          // gather masks: all lanes (cleared by the gather)
	VPCMPEQD     Y7, Y7, Y7
	VGATHERDPS   Y6, (BX)(Y4*4), Y2
	VGATHERDPS   Y7, (BX)(Y5*4), Y3
	VBROADCASTSS (SI), Y8
	VMULPS       Y2, Y8, Y2
	VMULPS       Y3, Y8, Y3
	VADDPS       Y2, Y0, Y0
	VADDPS       Y3, Y1, Y1
	ADDQ         $4, SI
	ADDQ         $4, BX
	DECQ         CX
	JNZ          loopSD

storeSD:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// SDDMM, windowed: one call computes two S rows' dots against a 32-column
// window of the batch-major operand, lane l of row r being
// Σ_b a[r·lda + b]·x[b·ldx + l] for b in [0, k) — the same chain as the
// gathered kernel's, summed in b order from +0, so the two give the same
// bits. Per batch row: two broadcasts of a, four contiguous loads of x
// shared by both rows, eight products into eight YMM accumulators. No
// gather, no index: the caller has cut the window from inside x, and
// lda = 0 runs one row twice.

// MAC2(xr, acc0, acc1) adds Y12·xr into acc0 and Y13·xr into acc1, both
// products through Y14.
#define MAC2(xr, acc0, acc1) \
	VMULPS xr, Y12, Y14 \
	VADDPS Y14, acc0, acc0 \
	VMULPS xr, Y13, Y14 \
	VADDPS Y14, acc1, acc1

// func sddmmWin32AVX2(out *[64]float32, a *float32, lda int, x *float32, ldx, k int)
TEXT ·sddmmWin32AVX2(SB), NOSPLIT, $0-48
	MOVQ   out+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   lda+16(FP), DX
	MOVQ   x+24(FP), BX
	MOVQ   ldx+32(FP), R8
	MOVQ   k+40(FP), CX
	LEAQ   (SI)(DX*4), DX
	SHLQ   $2, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JEQ    storeWin

loopWin:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VMOVUPS      64(BX), Y10
	VMOVUPS      96(BX), Y11
	VBROADCASTSS (SI), Y12
	VBROADCASTSS (DX), Y13
	MAC2(Y8, Y0, Y4)
	MAC2(Y9, Y1, Y5)
	MAC2(Y10, Y2, Y6)
	MAC2(Y11, Y3, Y7)
	ADDQ         $4, SI
	ADDQ         $4, DX
	ADDQ         R8, BX
	DECQ         CX
	JNZ          loopWin

storeWin:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

// SpMM from the feature-major operands (TSpMMInto): one call adds every S
// row's products into one block of k output features for 8·g consecutive
// batch lanes. Row j's stored positions run from cur[j] to end[j], which
// sit side by side (cur[2j], cur[2j+1]); the call takes the run of them,
// from cur[j] on, whose columns c fall in the block [lo, lo+k) and, for
// each in order, adds val[p]·bt[j, i:i+8g] into ct[c, i:i+8g]: broadcast
// val[p], multiply it into the bt row segment held in g YMM registers
// (VMULPS, rounds), load the ct row segment, add the product into it
// (VADDPS, rounds) and store it back — per lane the Go chain's multiply and
// add. It leaves cur[j] at the first position not taken, so consecutive
// blocks walk each row once, and the caller checks that every run ended at
// end[j]. Rows go in ascending j, so each output sees its products in
// ascending j. The caller hands ct at feature lo, bt at row 0 (both at the
// call's first lane, row stride ld), and cursors inside val and col; a
// column outside the block, an out-of-range one included, only ends its
// row's run, so every store lands in the block.

// TCOL loads col[p] (p = R13) less lo into R11 and leaves the flags of its
// unsigned comparison with k: below means the column is in the block.
#define TCOL \
	MOVL (DX)(R13*4), R11 \
	SUBQ R10, R11         \
	CMPQ R11, R12

// TNZ starts a nonzero: R11 becomes its ct row segment's address and
// val[p] is broadcast into Y6.
#define TNZ \
	IMULQ        R8, R11          \
	ADDQ         DI, R11          \
	VBROADCASTSS (BX)(R13*4), Y6

// TAXPY(off, b, prod, acc) adds val[p]·b into the ct row segment at off.
#define TAXPY(off, b, prod, acc) \
	VMULPS  b, Y6, prod    \
	VMOVUPS off(R11), acc  \
	VADDPS  prod, acc, acc \
	VMOVUPS acc, off(R11)

// func tspmmBlock48AVX2(ct *float32, ld int, bt *float32, val *float32, col *int32, cur *int32, rows, lo, k int)
TEXT ·tspmmBlock48AVX2(SB), NOSPLIT, $0-72
	TBLOCK
	CMPQ CX, rows+48(FP)
	JGE  done48b

row48b:
	MOVLQSX (R9)(CX*8), R13
	MOVLQSX 4(R9)(CX*8), AX
	CMPQ    R13, AX
	JGE     next48b
	TCOL
	JAE     next48b
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS 128(SI), Y4
	VMOVUPS 160(SI), Y5

nz48b:
	TNZ
	TAXPY(0, Y0, Y7, Y8)
	TAXPY(32, Y1, Y9, Y10)
	TAXPY(64, Y2, Y11, Y12)
	TAXPY(96, Y3, Y13, Y14)
	TAXPY(128, Y4, Y7, Y8)
	TAXPY(160, Y5, Y9, Y10)
	INCQ R13
	CMPQ R13, AX
	JGE  stop48b
	TCOL
	JB   nz48b

stop48b:
	MOVL R13, (R9)(CX*8)

next48b:
	ADDQ R8, SI
	INCQ CX
	CMPQ CX, rows+48(FP)
	JLT  row48b

done48b:
	VZEROUPPER
	RET

// func tspmmBlock32AVX2(ct *float32, ld int, bt *float32, val *float32, col *int32, cur *int32, rows, lo, k int)
TEXT ·tspmmBlock32AVX2(SB), NOSPLIT, $0-72
	TBLOCK
	CMPQ CX, rows+48(FP)
	JGE  done32b

row32b:
	MOVLQSX (R9)(CX*8), R13
	MOVLQSX 4(R9)(CX*8), AX
	CMPQ    R13, AX
	JGE     next32b
	TCOL
	JAE     next32b
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3

nz32b:
	TNZ
	TAXPY(0, Y0, Y7, Y8)
	TAXPY(32, Y1, Y9, Y10)
	TAXPY(64, Y2, Y11, Y12)
	TAXPY(96, Y3, Y13, Y14)
	INCQ R13
	CMPQ R13, AX
	JGE  stop32b
	TCOL
	JB   nz32b

stop32b:
	MOVL R13, (R9)(CX*8)

next32b:
	ADDQ R8, SI
	INCQ CX
	CMPQ CX, rows+48(FP)
	JLT  row32b

done32b:
	VZEROUPPER
	RET

// func tspmmBlock8AVX2(ct *float32, ld int, bt *float32, val *float32, col *int32, cur *int32, rows, lo, k int)
TEXT ·tspmmBlock8AVX2(SB), NOSPLIT, $0-72
	TBLOCK
	CMPQ CX, rows+48(FP)
	JGE  done8b

row8b:
	MOVLQSX (R9)(CX*8), R13
	MOVLQSX 4(R9)(CX*8), AX
	CMPQ    R13, AX
	JGE     next8b
	TCOL
	JAE     next8b
	VMOVUPS 0(SI), Y0

nz8b:
	TNZ
	TAXPY(0, Y0, Y7, Y8)
	INCQ R13
	CMPQ R13, AX
	JGE  stop8b
	TCOL
	JB   nz8b

stop8b:
	MOVL R13, (R9)(CX*8)

next8b:
	ADDQ R8, SI
	INCQ CX
	CMPQ CX, rows+48(FP)
	JLT  row8b

done8b:
	VZEROUPPER
	RET
