package tensor

// gemmVector reports whether the strip sweep runs the AVX2 micro-kernels of
// gemm_amd64.s. It is decided once, here, from the CPU alone — AVX2 present
// and the OS saving YMM state — and nothing a user sets chooses it; the Go
// kernel (gemmStrip8) stays as the path of every other host and as the
// oracle the vector kernel is pinned to bit for bit.
var gemmVector = cpuHasAVX2()

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 { // XCR0: the OS saves XMM and YMM state
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// Implemented in gemm_amd64.s. The pointers must come from Go slices of
// exactly the extent the kernel touches (see gemmStripSweepChunk): the
// assembly checks no bound.

//go:noescape
func gemmStrip4x8AVX2(c *float32, cStride int, a *float32, aStride int, b *float32, kcur int, seed bool)

//go:noescape
func gemmStrip1x8AVX2(c *float32, a *float32, b *float32, kcur int, seed bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
