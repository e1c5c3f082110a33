//go:build !amd64 || purego

package tensor

// No GELU or exponent kernel in this build: the Go loops run every element.
// A variable, not a constant, so the test hook that forces them compiles
// everywhere.
var expVector = false

func geluEvalAVX2(x *float32, n int) int {
	panic("tensor: vector exp kernel called on a build without one")
}

func geluDerivAVX2(x, d *float32, n int) int {
	panic("tensor: vector exp kernel called on a build without one")
}

func expShiftedAVX2(s *float32, n int, shift float32) int {
	panic("tensor: vector exp kernel called on a build without one")
}
