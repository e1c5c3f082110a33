//go:build !amd64 || purego

package sparse

// No vector CSR kernel on this architecture (csrVector is false, so the Go
// chain runs every output); the stubs keep the dispatch compiling.

func spmmtCols48AVX2(c *float32, ldc int, bt *float32, ldb, k int, val []float32, col []int32) bool {
	panic("sparse: vector CSR kernel called on a build without one")
}

func spmmtCols32AVX2(c *float32, ldc int, bt *float32, ldb, k int, val []float32, col []int32) bool {
	panic("sparse: vector CSR kernel called on a build without one")
}

func spmmtCols8AVX2(c *float32, ldc int, bt *float32, ldb, k int, val []float32, col []int32) bool {
	panic("sparse: vector CSR kernel called on a build without one")
}

func sddmmLanes16AVX2(out *[16]float32, a *float32, b *float32, idx *[16]int32, k int) {
	panic("sparse: vector CSR kernel called on a build without one")
}

func sddmmWin32AVX2(out *[64]float32, a *float32, lda int, x *float32, ldx, k int) {
	panic("sparse: vector CSR kernel called on a build without one")
}

func tspmmBlock48AVX2(ct *float32, ld int, bt *float32, val *float32, col *int32, cur *int32, rows, lo, k int) {
	panic("sparse: vector CSR kernel called on a build without one")
}

func tspmmBlock32AVX2(ct *float32, ld int, bt *float32, val *float32, col *int32, cur *int32, rows, lo, k int) {
	panic("sparse: vector CSR kernel called on a build without one")
}

func tspmmBlock8AVX2(ct *float32, ld int, bt *float32, val *float32, col *int32, cur *int32, rows, lo, k int) {
	panic("sparse: vector CSR kernel called on a build without one")
}
