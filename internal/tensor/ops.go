package tensor

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/sparse-dl/samo/internal/parallel"
)

// Add computes dst += src elementwise.
func Add(dst, src *Tensor) {
	binCheck(dst, src)
	d, s := dst.data, src.data
	for i := range d {
		d[i] += s[i]
	}
}

// Mul computes dst *= src elementwise (Hadamard product).
func Mul(dst, src *Tensor) {
	binCheck(dst, src)
	d, s := dst.data, src.data
	for i := range d {
		d[i] *= s[i]
	}
}

// Scale computes t *= a.
func Scale(t *Tensor, a float32) {
	d := t.data
	for i := range d {
		d[i] *= a
	}
}

func binCheck(dst, src *Tensor) {
	if len(dst.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: elementwise op on %d vs %d elements", len(dst.data), len(src.data)))
	}
}

// AddBias adds a length-n bias vector to every row of an (m,n) tensor.
func AddBias(t, bias *Tensor) {
	if t.Rank() != 2 || bias.Rank() != 1 || t.shape[1] != bias.shape[0] {
		panic("tensor: AddBias requires (m,n) tensor and length-n bias")
	}
	n := t.shape[1]
	b := bias.data
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		for j := range row {
			row[j] += b[j]
		}
	}
}

// SumRowsInto accumulates the rows of an (m,n) tensor into a length-n dst
// without allocating. If accumulate is false dst is overwritten.
func SumRowsInto(dst, t *Tensor, accumulate bool) {
	if t.Rank() != 2 || len(dst.data) != t.shape[1] {
		panic("tensor: SumRowsInto requires (m,n) tensor and length-n dst")
	}
	n := t.shape[1]
	d := dst.data
	if !accumulate {
		zeroSlice(d)
	}
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		_ = d[len(row)-1]
		for j := range row {
			d[j] += row[j]
		}
	}
}

// Sum returns the sum of all elements (float64 accumulator for stability).
func Sum(t *Tensor) float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Dot returns the inner product of two equal-length tensors.
func Dot(a, b *Tensor) float64 {
	binCheck(a, b)
	var s float64
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// ReLUWithMask applies max(0,x) to t in place, writing the activation mask
// (1 where active, 0 elsewhere) into the caller-provided mask tensor.
func ReLUWithMask(t, mask *Tensor) {
	binCheck(t, mask)
	d, m := t.data, mask.data
	_ = m[len(d)-1]
	for i, v := range d {
		if v > 0 {
			m[i] = 1
		} else {
			m[i] = 0
			d[i] = 0
		}
	}
}

// ReLUInPlace applies max(0,x) to t without producing a mask (eval mode).
func ReLUInPlace(t *Tensor) {
	for i, v := range t.data {
		if v < 0 {
			t.data[i] = 0
		}
	}
}

// GELUInPlace applies GELU to t without saving pre-activations (eval mode).
func GELUInPlace(t *Tensor) {
	for i, x := range t.data {
		t.data[i] = geluScalar(x)
	}
}

// GELUWithPre applies the tanh-approximate Gaussian error linear unit to t
// in place after copying the pre-activations GELUBackward needs into the
// caller-provided tensor.
func GELUWithPre(t, pre *Tensor) {
	binCheck(t, pre)
	copy(pre.data, t.data)
	for i, x := range t.data {
		t.data[i] = geluScalar(x)
	}
}

func geluScalar(x float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x64 := float64(x)
	return float32(0.5 * x64 * (1 + math.Tanh(c*(x64+0.044715*x64*x64*x64))))
}

// GELUBackward multiplies grad (in place) by dGELU/dx evaluated at pre.
func GELUBackward(grad, pre *Tensor) {
	binCheck(grad, pre)
	const c = 0.7978845608028654
	for i, x := range pre.data {
		x64 := float64(x)
		u := c * (x64 + 0.044715*x64*x64*x64)
		t := math.Tanh(u)
		du := c * (1 + 3*0.044715*x64*x64)
		d := 0.5*(1+t) + 0.5*x64*(1-t*t)*du
		grad.data[i] *= float32(d)
	}
}

// nonFiniteGrain is the minimum elements per parallel chunk of the
// non-finite scan: the per-element work is two integer ops, so fine-grained
// fan-out would be all dispatch overhead. Slices at or under one grain run
// serially on the caller.
const nonFiniteGrain = 16384

// nonFiniteJob carries one scan to the pool workers; the atomic flag both
// collects the verdict and lets later chunks exit early once any worker
// has found a non-finite value.
type nonFiniteJob struct {
	data  []float32
	found atomic.Bool
}

var nonFiniteJobFree parallel.Pool[nonFiniteJob]

// HasNonFiniteSlice reports whether s contains an Inf or NaN — the overflow
// check that drives dynamic loss scaling, which the mixed-precision state
// manager calls once per parameter per step on the captured fp16
// gradients. Large slices are scanned in chunks on the worker pool with an
// early exit through a shared atomic flag; the scan is allocation-free
// (pooled job, pooled dispatch), which keeps the fp16 train-step zero-alloc
// contract intact.
func HasNonFiniteSlice(s []float32) bool {
	if len(s) <= nonFiniteGrain {
		return hasNonFiniteSerial(s)
	}
	j := nonFiniteJobFree.Get()
	j.data = s
	j.found.Store(false)
	parallel.Run(len(s), nonFiniteGrain, j, hasNonFiniteChunk)
	found := j.found.Load()
	j.data = nil
	nonFiniteJobFree.Put(j)
	return found
}

func hasNonFiniteChunk(ctx any, lo, hi int) {
	g := ctx.(*nonFiniteJob)
	// Re-check the shared flag between sub-blocks so a chunk abandons its
	// scan soon after any worker finds a hit, without paying an atomic
	// load per element.
	const block = 8192
	for ; lo < hi; lo += block {
		if g.found.Load() {
			return
		}
		end := lo + block
		if end > hi {
			end = hi
		}
		if hasNonFiniteSerial(g.data[lo:end]) {
			g.found.Store(true)
			return
		}
	}
}

// hasNonFiniteSerial is the serial reference scan (and the small-slice
// path): a float32 is Inf or NaN exactly when its exponent bits are all
// ones, one mask-compare per element.
func hasNonFiniteSerial(s []float32) bool {
	for _, v := range s {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			return true
		}
	}
	return false
}
