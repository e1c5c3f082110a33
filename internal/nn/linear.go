package nn

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b with W of shape (in, out).
// FC layers are the paper's Figure 1 workload and dominate transformer
// compute; their weights are the primary pruning target.
type Linear struct {
	W, B *Param
	in   int
	out  int
}

// NewLinear creates a Linear layer with Xavier-uniform weights.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		W:  newParam(name+".weight", in, out),
		B:  newParam(name+".bias", out),
		in: in, out: out,
	}
	tensor.FillXavier(l.W.Value, in, out, rng)
	return l
}

type linearCache struct{ x *tensor.Tensor }

var linearCaches parallel.Pool[linearCache]

// Forward computes y = x·W + b for x of shape (n, in).
func (l *Linear) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if x.Rank() != 2 || x.Dim(1) != l.in {
		panic(fmt.Sprintf("nn: Linear(%d,%d) got input %v", l.in, l.out, x.Shape()))
	}
	y := a.Get(x.Dim(0), l.out)
	tensor.MatMulInto(y, x, l.W.Value, false)
	tensor.AddBias(y, l.B.Value)
	if !train {
		return y, nil
	}
	c := linearCaches.Get()
	c.x = x
	return y, c
}

// Backward computes dW += xᵀ·dy, db += Σrows dy, and returns dx = dy·Wᵀ.
// Parameter gradients accumulate directly into the Grad tensors (no
// temporaries).
func (l *Linear) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*linearCache)
	tensor.TMatMulInto(l.W.Grad, c.x, gradOut, true)
	tensor.SumRowsInto(l.B.Grad, gradOut, true)
	dx := a.Get(gradOut.Dim(0), l.in)
	tensor.MatMulTInto(dx, gradOut, l.W.Value, false)
	c.x = nil
	linearCaches.Put(c)
	return dx
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLULayer applies the rectifier elementwise.
type ReLULayer struct{}

// Forward clamps negatives to zero, caching the activation mask.
func (ReLULayer) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	y := a.Get(x.Shape()...)
	y.CopyFrom(x)
	if !train {
		tensor.ReLUInPlace(y)
		return y, nil
	}
	mask := a.Get(x.Shape()...)
	tensor.ReLUWithMask(y, mask)
	return y, mask
}

// Backward zeroes gradient where the input was negative.
func (ReLULayer) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	g := a.Get(gradOut.Shape()...)
	g.CopyFrom(gradOut)
	tensor.Mul(g, cache.(*tensor.Tensor))
	return g
}

// Params returns nil: ReLU has no parameters.
func (ReLULayer) Params() []*Param { return nil }

// GELULayer applies the Gaussian error linear unit (transformer MLPs).
type GELULayer struct{}

// Forward applies GELU, caching its derivative at each input.
func (GELULayer) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	y := a.Get(x.Shape()...)
	y.CopyFrom(x)
	if !train {
		tensor.GELUInPlace(y)
		return y, nil
	}
	deriv := a.Get(x.Shape()...)
	tensor.GELUWithDeriv(y, deriv)
	return y, deriv
}

// Backward multiplies by the cached dGELU/dx.
func (GELULayer) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	g := a.Get(gradOut.Shape()...)
	g.CopyFrom(gradOut)
	tensor.Mul(g, cache.(*tensor.Tensor))
	return g
}

// Params returns nil: GELU has no parameters.
func (GELULayer) Params() []*Param { return nil }

// Flatten reshapes (n, ...) to (n, rest), the CNN-to-classifier bridge.
type Flatten struct{}

type flattenCache struct{ shape []int }

var flattenCaches parallel.Pool[flattenCache]

// Forward flattens all but the leading dimension (a view: no copy).
func (Flatten) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	rest := 1
	for _, d := range x.Shape()[1:] {
		rest *= d
	}
	y := a.ViewOf(x, x.Dim(0), rest)
	if !train {
		return y, nil
	}
	c := flattenCaches.Get()
	c.shape = append(c.shape[:0], x.Shape()...)
	return y, c
}

// Infer flattens into an owned copy instead of a view: the windowed
// inference runner reclaims the input's arena one layer later, so the
// output must not alias x's storage (InferLayer's no-aliasing contract).
func (Flatten) Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	rest := 1
	for _, d := range x.Shape()[1:] {
		rest *= d
	}
	y := a.Get(x.Dim(0), rest)
	y.CopyFrom(x)
	return y
}

// Backward restores the original shape (a view: no copy).
func (Flatten) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*flattenCache)
	g := a.ViewOf(gradOut, c.shape...)
	flattenCaches.Put(c)
	return g
}

// Params returns nil: Flatten has no parameters.
func (Flatten) Params() []*Param { return nil }
