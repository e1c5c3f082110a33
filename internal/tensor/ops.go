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
	addRow(dst.data, src.data)
}

// addRow sets dst[i] += src[i] for every i < len(dst), serially on the
// caller: addAVX2 over the multiple-of-8 body where sweepVector holds, the
// Go loop over the rest (and everywhere else, and as the kernel's oracle).
// Each element is one float32 add with dst's value as the first operand, so
// both give the same bits.
func addRow(dst, src []float32) {
	src = src[:len(dst)]
	if n := len(dst) &^ 7; sweepVector && n > 0 {
		addAVX2(&dst[0], &src[0], n)
		dst, src = dst[n:], src[n:]
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// OrderedAdd returns the float32 sum a + b with the NaN an amd64 add
// returns for its first operand, whatever operand order the compiler emits
// (it may swap them, and does in race builds): when a is a NaN the result is
// a quieted, else when b is one it is b quieted; otherwise it is the
// hardware sum. A fold written with it gives the serial sum's bits, NaN
// payloads and signs included, on every build; the vector kernels, which
// add with the running sum as the first source, agree with it.
func OrderedAdd(a, b float32) float32 {
	s := a + b
	if s == s {
		return s
	}
	switch {
	case a != a:
		return math.Float32frombits(math.Float32bits(a) | 0x00400000)
	case b != b:
		return math.Float32frombits(math.Float32bits(b) | 0x00400000)
	}
	return s
}

// AddInto sets dst[i] = dst[i] + x[i] and AddIntoRev dst[i] = x[i] + dst[i],
// each add an OrderedAdd: the first operand's NaN is the one a NaN sum
// returns, so a group-order fold keeps the serial sum's bits whichever
// buffer holds the running sum. Serial on the caller. len(x) must be
// len(dst).
func AddInto(dst, x []float32) {
	addCheck(dst, x)
	for i, v := range x {
		dst[i] = OrderedAdd(dst[i], v)
	}
}

// AddIntoRev is AddInto with x as the first operand.
func AddIntoRev(dst, x []float32) {
	addCheck(dst, x)
	for i, v := range x {
		dst[i] = OrderedAdd(v, dst[i])
	}
}

func addCheck(dst, x []float32) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("tensor: add of %d elements into %d", len(x), len(dst)))
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
func Scale(t *Tensor, a float32) { ScaleSlice(t.data, a) }

// ScaleSlice computes s[i] *= a, serially on the caller — the loss-scale
// up-scale runs it on each of its worker-pool chunks.
func ScaleSlice(s []float32, a float32) {
	if n := len(s) &^ 7; sweepVector && n > 0 {
		scaleAVX2(&s[0], n, a)
		s = s[n:]
	}
	for i := range s {
		s[i] *= a
	}
}

func binCheck(dst, src *Tensor) {
	if len(dst.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: elementwise op on %d vs %d elements", len(dst.data), len(src.data)))
	}
}

// AddBias adds a length-n bias vector to every row of an (m,n) tensor, one
// addRow a row (AVX2 where the host has it, bit for bit the Go loop).
func AddBias(t, bias *Tensor) {
	if t.Rank() != 2 || bias.Rank() != 1 || t.shape[1] != bias.shape[0] {
		panic("tensor: AddBias requires (m,n) tensor and length-n bias")
	}
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		addRow(t.data[i*n:(i+1)*n], bias.data)
	}
}

// SumRowsInto accumulates the rows of an (m,n) tensor into a length-n dst
// without allocating, in row order, one addRow a row. If accumulate is false
// dst is overwritten.
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
		addRow(d, t.data[i*n:(i+1)*n])
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

// GELUInPlace applies GELU to t without saving its derivative (eval mode).
// On an AVX2 host (tensor.HostAVX2) the multiple-of-4 body runs
// geluEvalAVX2 (exp_amd64.s), a four-lane float64 twin of math.Tanh over the
// non-FMA sequence of Go's math.Exp; the Go loop geluEval is its oracle and
// runs the 0–3 element tail, any group of four holding an Inf or a NaN, every
// other host and the purego build. Both give the same bits: the tests sweep
// every float32 input whose tanh reaches the exponential, and CI's "GELU and
// softmax exp, every float32 input" step all 2³² of them.
func GELUInPlace(t *Tensor) {
	d := t.data
	i := 0
	if n := len(d) &^ 3; expVector {
		for i < n {
			if i += geluEvalAVX2(&d[i], n-i); i < n {
				geluEval(d[i : i+4])
				i += 4
			}
		}
	}
	geluEval(d[i:])
}

func geluEval(d []float32) {
	for i, x := range d {
		d[i] = geluScalar(x)
	}
}

// GELUWithDeriv applies the tanh-approximate Gaussian error linear unit to t
// in place and writes dGELU/dx at each input, rounded to float32, into the
// caller-provided tensor, so the backward is one Mul, as ReLU's is with its
// mask. Both come from the one float64 tanh the forward evaluates anyway.
// The kernel split is GELUInPlace's: geluDerivAVX2 over the multiple-of-4
// body on an AVX2 host, the Go loop geluDeriv everywhere else and as its
// oracle, bit for bit.
func GELUWithDeriv(t, deriv *Tensor) {
	binCheck(t, deriv)
	x, d := t.data, deriv.data
	i := 0
	if n := len(x) &^ 3; expVector {
		for i < n {
			if i += geluDerivAVX2(&x[i], &d[i], n-i); i < n {
				geluDeriv(x[i:i+4], d[i:i+4])
				i += 4
			}
		}
	}
	geluDeriv(x[i:], d[i:])
}

func geluDeriv(x, d []float32) {
	d = d[:len(x)]
	for i, v := range x {
		x64 := float64(v)
		th := geluTanh(x64)
		du := geluC * (1 + 3*0.044715*x64*x64)
		x[i] = float32(0.5 * x64 * (1 + th))
		d[i] = float32(0.5*(1+th) + 0.5*x64*(1-th*th)*du)
	}
}

const geluC = 0.7978845608028654 // sqrt(2/pi)

// geluTanh is tanh(√(2/π)·(x + 0.044715·x³)), the one transcendental of
// the GELU and of its derivative.
func geluTanh(x64 float64) float64 {
	return math.Tanh(geluC * (x64 + 0.044715*x64*x64*x64))
}

func geluScalar(x float32) float32 {
	x64 := float64(x)
	return float32(0.5 * x64 * (1 + geluTanh(x64)))
}

// ExpShifted sets s[j] = float32(math.Exp(float64(s[j]-shift))) for every j:
// the exponent pass of a softmax row whose maximum is shift. On an AVX2 host
// the multiple-of-4 body runs expShiftedAVX2 (exp_amd64.s, the non-FMA
// sequence of Go's math.Exp in four float64 lanes); the Go loop expShifted
// is its oracle and runs the 0–3 element tail, any group of four with an
// argument outside [−708, 708] (NaNs and infinities included), every other
// host and the purego build, with the same bits: TestExpKernelsEveryFloat32
// (CI's "GELU and softmax exp, every float32 input" step) runs all 2³²
// float32 arguments through both.
func ExpShifted(s []float32, shift float32) {
	i := 0
	if n := len(s) &^ 3; expVector {
		for i < n {
			if i += expShiftedAVX2(&s[i], n-i, shift); i < n {
				expShifted(s[i:i+4], shift)
				i += 4
			}
		}
	}
	expShifted(s[i:], shift)
}

func expShifted(s []float32, shift float32) {
	for j, v := range s {
		s[j] = float32(math.Exp(float64(v - shift)))
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
// (core.ModelState.Overflow) calls once per step over the whole ∇θ16 slab.
// Large slices are scanned in chunks on the worker pool with an early exit
// through a shared atomic flag; the scan is allocation-free (pooled job,
// pooled dispatch), which keeps the fp16 train-step zero-alloc contract
// intact.
func HasNonFiniteSlice(s []float32) bool {
	if len(s) <= nonFiniteGrain {
		return hasNonFinite(s)
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
		if hasNonFinite(g.data[lo:end]) {
			g.found.Store(true)
			return
		}
	}
}

// hasNonFinite scans s on the caller: a float32 is Inf or NaN exactly when
// its exponent bits are all ones, one mask-compare per element — eight at a
// time in the AVX2 kernel over the multiple-of-8 body, where the host has
// it, and in the Go loop over the rest.
func hasNonFinite(s []float32) bool {
	if n := len(s) &^ 7; sweepVector && n > 0 {
		if nonFiniteAVX2(&s[0], n) {
			return true
		}
		s = s[n:]
	}
	for _, v := range s {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			return true
		}
	}
	return false
}
