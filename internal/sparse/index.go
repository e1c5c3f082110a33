package sparse

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/parallel"
)

// Index is the shared, linearized non-zero index tensor of one layer
// (Section III-B). Two design decisions from the paper are load-bearing and
// reproduced exactly:
//
//  1. All compressed model states of a layer (θ32, ∇θ16, ∇θ32, os) share ONE
//     Index — storing it once instead of four times is what keeps the index
//     overhead at 4fφ bytes rather than 16fφ.
//  2. Indices address a hypothetical one-dimensional view of the state
//     tensor, so an N-dimensional tensor needs one int32 per non-zero instead
//     of N — an N× saving.
type Index struct {
	ids  []int32 // sorted ascending, unique
	full int     // number of elements in the uncompressed 1-D view
}

// NewIndex builds an Index from a mask.
func NewIndex(m *Mask) *Index {
	return &Index{ids: m.Indices(), full: m.Len()}
}

// IndexFromSlice builds an Index directly from sorted unique linearized ids.
func IndexFromSlice(ids []int32, full int) *Index {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			panic("sparse: index ids must be sorted and unique")
		}
	}
	if len(ids) > 0 && (ids[0] < 0 || int(ids[len(ids)-1]) >= full) {
		panic(fmt.Sprintf("sparse: index ids out of range [0,%d)", full))
	}
	return &Index{ids: append([]int32(nil), ids...), full: full}
}

// NNZ returns the number of unpruned (stored) elements.
func (ix *Index) NNZ() int { return len(ix.ids) }

// FullLen returns the length of the uncompressed 1-D view.
func (ix *Index) FullLen() int { return ix.full }

// IDs returns the underlying index slice (not to be modified).
func (ix *Index) IDs() []int32 { return ix.ids }

// Bytes returns the memory footprint of the index itself: 4 bytes per
// non-zero (the 4fφ term of the paper's memory model).
func (ix *Index) Bytes() int64 { return int64(len(ix.ids)) * 4 }

// Clone returns an independent copy. Gradual pruning shrinks a state's
// index in place, so every state that may shrink owns its own copy (as
// every GPU stores its own ind tensor) while the pruning result's indices
// stay immutable.
func (ix *Index) Clone() *Index {
	return &Index{ids: append([]int32(nil), ix.ids...), full: ix.full}
}

// ShrinkTo drops the ids at positions where keep is false, compacting the
// survivors leftward in place — NNZ only ever decreases under gradual
// pruning, so the backing array is reused, never reallocated. keep is in
// stored (ascending id) order; the result stays sorted and unique.
func (ix *Index) ShrinkTo(keep []bool) {
	if len(keep) != len(ix.ids) {
		panic(fmt.Sprintf("sparse: ShrinkTo keep length %d, want %d", len(keep), len(ix.ids)))
	}
	w := 0
	for i, k := range keep {
		if k {
			ix.ids[w] = ix.ids[i]
			w++
		}
	}
	ix.ids = ix.ids[:w]
}

// ixJob carries a compress/expand call's arguments to the worker pool.
// Recycled through a parallel.Pool so the calls stay allocation-free (they
// sit on the per-layer gradient-capture path, run once per microbatch).
type ixJob struct {
	ids        []int32
	dst, dense []float32
}

var ixJobFree parallel.Pool[ixJob]

func getIxJob() *ixJob { return ixJobFree.Get() }

func putIxJob(j *ixJob) {
	j.ids, j.dst, j.dense = nil, nil, nil
	ixJobFree.Put(j)
}

// ixGrain is the minimum elements per parallel chunk for gather/scatter
// loops (they are memory-bound; small chunks are all dispatch overhead).
const ixGrain = 16384

func compressChunk(ctx any, lo, hi int) {
	j := ctx.(*ixJob)
	ids, dst, dense := j.ids, j.dst, j.dense
	for i := lo; i < hi; i++ {
		dst[i] = dense[ids[i]]
	}
}

func zeroChunk(ctx any, lo, hi int) {
	d := ctx.(*ixJob).dense
	for i := lo; i < hi; i++ {
		d[i] = 0
	}
}

func expandChunk(ctx any, lo, hi int) {
	j := ctx.(*ixJob)
	ids, dst, dense := j.ids, j.dst, j.dense
	for i := lo; i < hi; i++ {
		dense[ids[i]] = dst[i]
	}
}

// Compress gathers the unpruned elements of a dense 1-D view into dst,
// which must have NNZ capacity. This is the operation applied to gradients
// at layer granularity during the backward pass. The gather is parallel
// (disjoint dst ranges) and allocation-free.
func (ix *Index) Compress(dst, dense []float32) {
	if len(dense) != ix.full {
		panic(fmt.Sprintf("sparse: Compress dense length %d, want %d", len(dense), ix.full))
	}
	if len(dst) != len(ix.ids) {
		panic(fmt.Sprintf("sparse: Compress dst length %d, want %d", len(dst), len(ix.ids)))
	}
	j := getIxJob()
	j.ids, j.dst, j.dense = ix.ids, dst, dense
	parallel.Run(len(ix.ids), ixGrain, j, compressChunk)
	putIxJob(j)
}

// Expand scatters compressed values back into a dense 1-D view, filling
// pruned positions with zero — the paper's "expansion" operation, the
// inverse of compression, used in the optimizer's down-cast step. Both the
// zero-fill and the scatter are parallel (ids are unique, so scatter writes
// are disjoint) and allocation-free.
func (ix *Index) Expand(dense, compressed []float32) {
	if len(dense) != ix.full {
		panic(fmt.Sprintf("sparse: Expand dense length %d, want %d", len(dense), ix.full))
	}
	if len(compressed) != len(ix.ids) {
		panic(fmt.Sprintf("sparse: Expand compressed length %d, want %d", len(compressed), len(ix.ids)))
	}
	j := getIxJob()
	j.ids, j.dst, j.dense = ix.ids, compressed, dense
	parallel.Run(len(dense), ixGrain, j, zeroChunk)
	parallel.Run(len(ix.ids), ixGrain, j, expandChunk)
	putIxJob(j)
}

// Gather copies dst[i] = src[ids[i]] on the worker pool — the free-standing
// permutation gather behind cached-transpose value refreshes (ids need not
// be sorted or unique, unlike an Index). Parallel over disjoint dst ranges
// and allocation-free.
func Gather(dst, src []float32, ids []int32) {
	if len(dst) != len(ids) {
		panic(fmt.Sprintf("sparse: Gather dst length %d, want %d", len(dst), len(ids)))
	}
	j := getIxJob()
	j.ids, j.dst, j.dense = ids, dst, src
	parallel.Run(len(ids), ixGrain, j, compressChunk)
	putIxJob(j)
}

// Mask reconstructs the boolean mask this index describes.
func (ix *Index) Mask() *Mask {
	return FromIndices(ix.full, ix.ids)
}
