//go:build !amd64 || purego

package tensor

// No row kernel in this build: the Go loops run every element. A variable,
// not a constant, so the test hook that forces them compiles everywhere.
var rowsVector = false

func dotsAVX2(dst *float32, n int, x *float32, m int, kt *float32, stride int) {
	panic("tensor: vector row kernel called on a build without one")
}

func addWeightedRowsAVX2(dst *float32, n int, w *float32, cnt int, rows *float32, stride int) {
	panic("tensor: vector row kernel called on a build without one")
}

func addOuterRowsAVX2(rows *float32, stride int, w *float32, cnt int, x *float32, n int, skipZero bool) {
	panic("tensor: vector row kernel called on a build without one")
}
