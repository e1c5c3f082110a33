//go:build !amd64 || purego

package tensor

// No vector micro-kernel on this architecture: the strip sweep runs the Go
// kernel (gemmStrip8) only. A variable, not a constant, so the test hook
// that forces the Go kernel compiles everywhere.
var gemmVector = false

// gemmWide is false: no 16-lane kernel either.
var gemmWide = false

// HostAVX2 reports false: no vector kernel is built for this architecture.
func HostAVX2() bool { return false }

func gemmStrip4x8AVX2(c *float32, cStride int, a *float32, aStride int, b *float32, bStride int, kcur int, seed bool) {
	panic("tensor: vector GEMM kernel called on a build without one")
}

func gemmStrip4x16AVX512(c *float32, cStride int, a *float32, aStride int, b *float32, bStride int, kcur int, seed bool) {
	panic("tensor: vector GEMM kernel called on a build without one")
}

func gemmStrip1x8AVX2(c *float32, a *float32, b *float32, bStride int, kcur int, seed bool) {
	panic("tensor: vector GEMM kernel called on a build without one")
}

func tGemm4x8AVX2(c *float32, n int, a *float32, m int, b *float32, kcur int, cols int) {
	panic("tensor: vector GEMM kernel called on a build without one")
}

func gemmPackNT8x8AVX2(dst *float32, dstStride int, src *float32, k int, blocks int) {
	panic("tensor: vector GEMM kernel called on a build without one")
}
