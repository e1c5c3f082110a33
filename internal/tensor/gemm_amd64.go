//go:build amd64 && !purego

package tensor

// hostAVX2 is the process's one CPU probe: AVX2 and F16C (the half-precision
// conversions internal/fp16's kernels round with) present and the OS saving
// YMM state. Every CPU with AVX2 has F16C; the probe asks anyway. It is
// decided once, here, from the CPU alone, and nothing a user sets chooses it.
var hostAVX2 = cpuHasAVX2()

// gemmVector reports whether the strip sweep runs the AVX2 micro-kernels of
// gemm_amd64.s; the Go kernel (gemmStrip8) stays as the path of every other
// host and as the oracle the vector kernel is pinned to bit for bit. A
// variable apart from hostAVX2 so tests can force the Go kernel.
var gemmVector = hostAVX2

// gemmWide reports whether the strip sweep runs gemmStrip4x16AVX512 over
// every whole 16-column strip, and the packs lay those strips out 16 wide;
// decided once, from the CPU alone, beside hostAVX2. Both widths give the
// same bits. A variable so tests can force the 8-lane kernels on a host that
// has the wide one.
var gemmWide = hostAVX2 && cpuHasAVX512F()

// HostAVX2 reports the start-up probe above, for the vector kernels of other
// packages (the CSR kernels of internal/sparse, the rounding kernels of
// internal/fp16, Adam's in internal/optim), so the process has one answer to
// "may AVX2 run here".
func HostAVX2() bool { return hostAVX2 }

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx, f16c = 1 << 27, 1 << 28, 1 << 29
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 || ecx&f16c == 0 {
		return false
	}
	if xgetbv0()&6 != 6 { // XCR0: the OS saves XMM and YMM state
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuHasAVX512F reports AVX512F (CPUID leaf 7, EBX bit 16) with the OS
// saving the opmask and all 512 bits of the 32 vector registers besides XMM
// and YMM state (XCR0 & 0xE6); the wide kernel uses AVX512F instructions
// only. Asked only once cpuHasAVX2 holds, which has checked that leaf 7
// exists and that XGETBV may run.
func cpuHasAVX512F() bool {
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return xgetbv0()&0xE6 == 0xE6 && ebx&avx512f != 0
}

// Implemented in gemm_amd64.s. The pointers must come from Go slices of
// exactly the extent the kernel touches (see gemmStripSweepChunk,
// gemmDirectChunk, tGemmVecChunk and gemmPackStripNTChunk): the assembly
// checks no bound. bStride is the strip width (8, or 16 for the wide
// kernel's strips) for a packed strip and n for B read in place.

//go:noescape
func gemmStrip4x8AVX2(c *float32, cStride int, a *float32, aStride int, b *float32, bStride int, kcur int, seed bool)

// gemmStrip4x16AVX512 is gemmStrip4x8AVX2 over one 16-wide strip, in ZMM
// registers.
//
//go:noescape
func gemmStrip4x16AVX512(c *float32, cStride int, a *float32, aStride int, b *float32, bStride int, kcur int, seed bool)

//go:noescape
func gemmStrip1x8AVX2(c *float32, a *float32, b *float32, bStride int, kcur int, seed bool)

// tGemm4x8AVX2 adds one tiledKC block of C = Aᵀ·B into four C rows × cols
// columns (a multiple of 8) for tGemmVecChunk: c and b row stride n, a row
// stride m, kcur ≥ 1 k rows.
//
//go:noescape
func tGemm4x8AVX2(c *float32, n int, a *float32, m int, b *float32, kcur int, cols int)

// gemmPackNT8x8AVX2 packs eight whole columns of gemmNT's Bᵀ panel, blocks
// 8×8 blocks of them, for gemmPackStripNTChunk: src has row stride k, dst
// row stride dstStride (the width of the strip the columns land in).
//
//go:noescape
func gemmPackNT8x8AVX2(dst *float32, dstStride int, src *float32, k int, blocks int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
