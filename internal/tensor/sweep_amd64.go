//go:build amd64 && !purego

package tensor

// sweepVector reports whether the element-wise sweeps — the non-finite scan,
// ScaleSlice and the adds of Add, AddBias and SumRowsInto — run the AVX2
// kernels of sweep_amd64.s over their multiple-of-8 bodies. The Go loops
// stay as the path of every other host (and of the last 0–7 elements) and
// as the oracle. A variable apart from hostAVX2 so tests can force the Go
// loops.
var sweepVector = hostAVX2

// Implemented in sweep_amd64.s over n elements, n a multiple of 8; the
// callers have cut s from a slice at least n long.

//go:noescape
func nonFiniteAVX2(s *float32, n int) bool

//go:noescape
func scaleAVX2(s *float32, n int, a float32)

// addAVX2 sets dst[i] = dst[i] + src[i] over n elements, n a multiple of 8.
//
//go:noescape
func addAVX2(dst, src *float32, n int)
