//go:build amd64 && !purego

package tensor

// expVector reports whether GELU (value, and value with derivative) and a
// softmax row's exponent pass run the AVX2 kernels of exp_amd64.s over
// their multiple-of-4 bodies. The Go loops stay as the path of every other
// host, of the last 0–3 elements and of any group of four a kernel hands
// back, and as the oracle. A variable apart from hostAVX2 so tests can force
// the Go loops.
var expVector = hostAVX2

// Implemented in exp_amd64.s over the first n elements, n a multiple of 4;
// each returns how many it finished (a multiple of 4, at most n), stopping
// at the first group of four it leaves to the Go loop.

//go:noescape
func geluEvalAVX2(x *float32, n int) int

//go:noescape
func geluDerivAVX2(x, d *float32, n int) int

//go:noescape
func expShiftedAVX2(s *float32, n int, shift float32) int
