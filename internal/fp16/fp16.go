// Package fp16 rounds float32 values onto the IEEE 754 binary16 (half
// precision) grid. SAMO stores the dense parameter tensor θ16 and the
// compressed gradient tensor ∇θ16 in half precision, exactly as
// mixed-precision training does on V100-class hardware; this package is the
// software stand-in for that storage format. Arithmetic is performed in
// float32 (as on real hardware, where fp16 inputs feed fp32 accumulators in
// tensor cores) — only storage is 16-bit, so the one operation the training
// state needs is "store to half and read back", Round, and its slice forms.
//
// Round is round-to-nearest-even, the rounding of CUDA's __float2half_rn and
// of the float16 casts deep learning frameworks use, followed by the exact
// widening back. It equals, bit for bit on all 2³² inputs, the two-step
// conversion through half bits that it replaced (now the test oracle), but
// works in one step on the float32 bit pattern, by range of |x|:
//
//   - normal half range, 2⁻¹⁴ ≤ |x| < 65520: the 13 low fraction bits are
//     rounded away in the integer domain (a carry out of the fraction bumps
//     the exponent, which is the correct result);
//   - below 2⁻¹⁴, half subnormals and zero (float32 subnormals included):
//     the half grid is uniform there with spacing 2⁻²⁴, the float32 spacing
//     in [0.5, 1), so float32(|x|+0.5)−0.5 is the hardware's own
//     round-to-nearest-even onto it. The explicit float32 conversion is
//     what the Go spec requires for the sum to be rounded to single
//     precision before the subtraction on every architecture;
//   - |x| ≥ 65520 (the midpoint above the largest finite half, 65504, whose
//     fraction is odd) overflows to ±Inf, visible to the dynamic loss
//     scaler rather than silently saturating; ±Inf stays; every NaN
//     becomes the quiet NaN sign|0x7FC00000, its payload dropped.
//
// The sign bit is carried through unchanged in every range, so −0 and
// negative underflow stay −0.
//
// The slice kernels are the sweeps the training state runs over θ16 and
// ∇θ16. Their loops carry the two finite ranges inline (roundFinite) and call
// out only for Inf, NaN and overflow; from parallel.StreamGrain elements up they run
// chunked on the worker pool. Each element is computed independently of
// every other, so the result is bit-identical at every worker count.
package fp16

import (
	"fmt"
	"math"

	"github.com/sparse-dl/samo/internal/parallel"
)

const (
	signBit     = 0x80000000
	minNormal   = 0x38800000 // 2⁻¹⁴, the smallest normal half
	overflowAt  = 0x477FF000 // 65520, the smallest magnitude that rounds to Inf
	f32Inf      = 0x7F800000
	f32QuietNaN = 0x7FC00000
)

// Round simulates a float32 value being stored to half precision and read
// back. It is the quantization applied to every θ16 and ∇θ16 element.
func Round(f float32) float32 {
	if r, ok := roundFinite(f); ok {
		return r
	}
	b := math.Float32bits(f)
	if b&^signBit > f32Inf {
		return math.Float32frombits(b&signBit | f32QuietNaN)
	}
	return math.Float32frombits(b&signBit | f32Inf)
}

// roundFinite is Round wherever the result is finite: the normal and the
// subnormal range, ok false from 65520 up. It is kept within the compiler's
// inlining budget (TestRoundFiniteInlines), so a kernel loop that tries it
// first pays a call to Round only for Inf, NaN and overflow.
func roundFinite(f float32) (r float32, ok bool) {
	b := math.Float32bits(f)
	a := b &^ signBit
	h := (a + 0xFFF + (a>>13)&1) &^ 0x1FFF
	if a < minNormal {
		h = math.Float32bits(float32(math.Float32frombits(a)+0.5) - 0.5)
	}
	return math.Float32frombits(b&signBit | h), a < overflowAt
}

// job carries one kernel call's arguments to the worker pool, recycled so
// the calls stay allocation-free on the train-step path.
type job struct {
	dst, src []float32
	ids      []int32
}

var jobFree parallel.Pool[job]

func run(n int, dst, src []float32, ids []int32, fn func(ctx any, lo, hi int)) {
	j := jobFree.Get()
	j.dst, j.src, j.ids = dst, src, ids
	parallel.Run(n, parallel.StreamGrain, j, fn)
	*j = job{}
	jobFree.Put(j)
}

func checkLen(kernel string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("fp16: %s length %d, want %d", kernel, got, want))
	}
}

// RoundSlice sets dst[i] = Round(src[i]) — the dense down-cast θ16 ← θ32.
// dst and src may be the same slice.
func RoundSlice(dst, src []float32) {
	checkLen("RoundSlice dst", len(dst), len(src))
	run(len(src), dst, src, nil, roundChunk)
}

func roundChunk(ctx any, lo, hi int) {
	j := ctx.(*job)
	dst, src := j.dst[lo:hi], j.src[lo:hi]
	for i, v := range src {
		r, ok := roundFinite(v)
		if !ok {
			r = Round(v)
		}
		dst[i] = r
	}
}

// RoundScatter sets dst[ids[i]] = Round(src[i]) — the SAMO down-cast, which
// expands compressed θ32 straight into dense θ16. Positions ids does not
// name are left as they are. ids must be unique and within dst.
func RoundScatter(dst, src []float32, ids []int32) {
	checkLen("RoundScatter src", len(src), len(ids))
	run(len(ids), dst, src, ids, scatterChunk)
}

func scatterChunk(ctx any, lo, hi int) {
	j := ctx.(*job)
	dst, src, ids := j.dst, j.src[lo:hi], j.ids[lo:hi]
	for i, v := range src {
		r, ok := roundFinite(v)
		if !ok {
			r = Round(v)
		}
		dst[ids[i]] = r
	}
}

// AccumRoundClear sets acc[i] = Round(acc[i] + g[i]) and then g[i] = 0 —
// dense gradient capture into ∇θ16, clearing the accumulator it drained in
// the same sweep.
func AccumRoundClear(acc, g []float32) {
	checkLen("AccumRoundClear g", len(g), len(acc))
	run(len(acc), acc, g, nil, accumClearChunk)
}

func accumClearChunk(ctx any, lo, hi int) {
	j := ctx.(*job)
	acc, g := j.dst[lo:hi], j.src[lo:hi]
	for i, v := range g {
		s := acc[i] + v
		r, ok := roundFinite(s)
		if !ok {
			r = Round(s)
		}
		acc[i], g[i] = r, 0
	}
}

// AccumRoundGather sets acc[i] = Round(acc[i] + g[ids[i]]) — SAMO gradient
// capture, compressing as it accumulates. ids must be within g.
func AccumRoundGather(acc, g []float32, ids []int32) {
	checkLen("AccumRoundGather acc", len(acc), len(ids))
	run(len(ids), acc, g, ids, accumGatherChunk)
}

func accumGatherChunk(ctx any, lo, hi int) {
	j := ctx.(*job)
	acc, g, ids := j.dst[lo:hi], j.src, j.ids[lo:hi]
	for i, id := range ids {
		s := acc[i] + g[id]
		r, ok := roundFinite(s)
		if !ok {
			r = Round(s)
		}
		acc[i] = r
	}
}

// AccumRoundAt sets acc[id] = Round(acc[id] + g[id]) for every id in ids —
// masked-dense gradient capture: full-length storage, pruned coordinates
// untouched. ids must be unique and within both slices.
func AccumRoundAt(acc, g []float32, ids []int32) {
	checkLen("AccumRoundAt g", len(g), len(acc))
	run(len(ids), acc, g, ids, accumAtChunk)
}

func accumAtChunk(ctx any, lo, hi int) {
	j := ctx.(*job)
	acc, g := j.dst, j.src
	for _, id := range j.ids[lo:hi] {
		s := acc[id] + g[id]
		r, ok := roundFinite(s)
		if !ok {
			r = Round(s)
		}
		acc[id] = r
	}
}
