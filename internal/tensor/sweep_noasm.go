//go:build !amd64 || purego

package tensor

// No vector sweep kernel in this build: the Go loops run every element. A
// variable, not a constant, so the test hook that forces them compiles
// everywhere.
var sweepVector = false

func nonFiniteAVX2(s *float32, n int) bool {
	panic("tensor: vector sweep kernel called on a build without one")
}

func scaleAVX2(s *float32, n int, a float32) {
	panic("tensor: vector sweep kernel called on a build without one")
}

func addAVX2(dst, src *float32, n int) {
	panic("tensor: vector sweep kernel called on a build without one")
}
