//go:build amd64 && !purego

package tensor

// rowsVector reports whether DotsInto, AddWeightedRows and AddOuterRows run
// the AVX2 kernels of rows_amd64.s over their multiple-of-8 bodies. A
// variable apart from hostAVX2 so tests can force the Go loops.
var rowsVector = hostAVX2

// Implemented in rows_amd64.s. n is a multiple of 8 and at least 8, m, cnt
// and the Go callers' slices cover everything the kernel touches (the
// assembly checks no bound); m and cnt are at least 1.

// dotsAVX2 is DotsInto over n keys, x of m floats.
//
//go:noescape
func dotsAVX2(dst *float32, n int, x *float32, m int, kt *float32, stride int)

// addWeightedRowsAVX2 is AddWeightedRows over n columns, cnt rows.
//
//go:noescape
func addWeightedRowsAVX2(dst *float32, n int, w *float32, cnt int, rows *float32, stride int)

// addOuterRowsAVX2 is AddOuterRows over cnt rows, n columns.
//
//go:noescape
func addOuterRowsAVX2(rows *float32, stride int, w *float32, cnt int, x *float32, n int, skipZero bool)
