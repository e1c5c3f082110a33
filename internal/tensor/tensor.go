// Package tensor provides the dense tensor substrate used throughout the
// SAMO reproduction: float32 tensors with shapes and views, a parallel
// blocked GEMM, im2col convolution lowering, elementwise kernels, and a
// half-precision (fp16-storage) tensor mirroring mixed-precision training.
//
// The package plays the role cuBLAS/cuDNN+PyTorch play in the paper: the
// dense compute path that SAMO deliberately keeps — θ16 stays dense so the
// forward and backward passes can use these kernels unmodified.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// tensor; use New or FromSlice for anything else. Data is always contiguous:
// views that would require strides copy instead, keeping kernel code simple
// and cache-friendly (the same trade dense GPU kernels make).
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	// make+copy rather than append-to-nil: this keeps the variadic shape
	// argument non-escaping at call sites (append's flow analysis would
	// force callers to heap-allocate it on every call — measurable on the
	// arena's hot path).
	sh := make([]int, len(shape))
	copy(sh, shape)
	return &Tensor{shape: sh, data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is NOT
// copied; the tensor aliases it. len(data) must equal the shape's element
// count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), append([]int(nil), shape...), n))
	}
	sh := make([]int, len(shape))
	copy(sh, shape)
	return &Tensor{shape: sh, data: data}
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Copy before formatting: handing shape itself to Sprintf would
			// make the parameter escape and force every caller to heap-
			// allocate its variadic shape argument — on the non-panic path.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The caller must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutations are visible
// to the tensor; this is the primary interface for flat kernels (optimizer,
// compression) that do not care about shape.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", ix, t.shape[i], i))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Reshape returns a view of t with a new shape (same backing data). One
// dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	// Copy into a fresh variable rather than reassigning the parameter:
	// a reassigned variadic parameter is marked leaking by escape
	// analysis, which would force every caller (Arena.ViewOf among them)
	// to heap-allocate its shape literal on the non-panic path.
	sh := make([]int, len(shape))
	copy(sh, shape)
	infer := -1
	n := 1
	for i, d := range sh {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: at most one -1 dimension in Reshape")
			}
			infer = i
		} else {
			n *= d
		}
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, sh))
		}
		sh[infer] = len(t.data) / n
		n *= sh[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes element count", t.shape, sh))
	}
	return &Tensor{shape: sh, data: t.data}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: d}
}

// CopyFrom copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(src.data) != len(t.data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.data, src.data)
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Slice returns a view of rows [lo,hi) along the first dimension.
func (t *Tensor) Slice(lo, hi int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: Slice requires rank >= 1")
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: Slice[%d:%d] out of range for dim %d", lo, hi, t.shape[0]))
	}
	stride := 1
	for _, d := range t.shape[1:] {
		stride *= d
	}
	shape := append([]int{hi - lo}, t.shape[1:]...)
	return &Tensor{shape: shape, data: t.data[lo*stride : hi*stride]}
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g]", t.data[0], t.data[1], t.data[len(t.data)-1])
	}
	return b.String()
}

// MaxAbsDiff returns the largest absolute elementwise difference between t
// and u, which must have equal element counts. Used pervasively in tests.
func MaxAbsDiff(t, u *Tensor) float64 {
	if len(t.data) != len(u.data) {
		panic("tensor: MaxAbsDiff size mismatch")
	}
	var m float64
	for i := range t.data {
		d := float64(t.data[i] - u.data[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
