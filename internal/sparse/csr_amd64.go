//go:build amd64 && !purego

package sparse

// Implemented in csr_amd64.s: one sparse row's outputs for 48, 32 or 8
// consecutive batch rows. c points at C[i, j] (C row stride ldc), bt at
// Bᵀ[0, i] (row stride ldb, k rows); the caller has cut both from slices
// that cover every element the call touches for column indices below k.
// ok is false, and nothing is stored, when a column index is not below k.

//go:noescape
func spmmtCols48AVX2(c *float32, ldc int, bt *float32, ldb, k int, val []float32, col []int32) (ok bool)

//go:noescape
func spmmtCols32AVX2(c *float32, ldc int, bt *float32, ldb, k int, val []float32, col []int32) (ok bool)

//go:noescape
func spmmtCols8AVX2(c *float32, ldc int, bt *float32, ldb, k int, val []float32, col []int32) (ok bool)

// Implemented in csr_amd64.s: sixteen sampled dots of one S row,
// out[l] = Σ_x a[x]·b[idx[l]+x] for x in [0, k). a points at k floats; the
// caller has checked every idx[l]+k against b's extent (unused lanes: 0).
//
//go:noescape
func sddmmLanes16AVX2(out *[16]float32, a *float32, b *float32, idx *[16]int32, k int)

// Implemented in csr_amd64.s: two S rows' dots against a 32-column window
// of the batch-major operand, out[r·32+l] = Σ_b a[r·lda+b]·x[b·ldx+l] for b
// in [0, k). The caller has cut a's two rows and x's k window rows from
// inside their slices; lda = 0 computes one row twice.
//
//go:noescape
func sddmmWin32AVX2(out *[64]float32, a *float32, lda int, x *float32, ldx, k int)

// Implemented in csr_amd64.s: every S row's products added into one block
// of k output features for 48, 32 or 8 consecutive batch lanes. ct points at
// Cᵀ[lo, i] and bt at Bᵀ[0, i] (row stride ld); row j's run starts at its
// cursor cur[2j] and ends at its end cur[2j+1] or at the first column
// outside [lo, lo+k), and the cursor is left there. The caller has checked
// every cursor and end against val and col, and cut ct and bt from slices
// covering the block's rows and all rows of the call's lanes.

//go:noescape
func tspmmBlock48AVX2(ct *float32, ld int, bt *float32, val *float32, col *int32, cur *int32, rows, lo, k int)

//go:noescape
func tspmmBlock32AVX2(ct *float32, ld int, bt *float32, val *float32, col *int32, cur *int32, rows, lo, k int)

//go:noescape
func tspmmBlock8AVX2(ct *float32, ld int, bt *float32, val *float32, col *int32, cur *int32, rows, lo, k int)
