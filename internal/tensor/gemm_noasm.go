//go:build !amd64

package tensor

// No vector micro-kernel on this architecture: the strip sweep runs the Go
// kernel (gemmStrip8) only. A variable, not a constant, so the test hook
// that forces the Go kernel compiles everywhere.
var gemmVector = false

func gemmStrip4x8AVX2(c *float32, cStride int, a *float32, aStride int, b *float32, kcur int, seed bool) {
	panic("tensor: vector GEMM kernel called on a build without one")
}

func gemmStrip1x8AVX2(c *float32, a *float32, b *float32, kcur int, seed bool) {
	panic("tensor: vector GEMM kernel called on a build without one")
}
