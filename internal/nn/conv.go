package nn

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Conv2d is a 2-D convolution lowered to im2col + dense GEMM (the cuDNN
// strategy): the weight stays a dense matrix so SAMO's dense-compute
// requirement holds for CNNs exactly as for FC layers.
type Conv2d struct {
	W, B *Param // W stored as (outC, inC·k·k); B as (outC)
	Spec tensor.ConvSpec
}

// NewConv2d creates a convolution with He-normal init.
func NewConv2d(name string, spec tensor.ConvSpec, rng *tensor.RNG) *Conv2d {
	fanIn := spec.InC * spec.Kernel * spec.Kernel
	c := &Conv2d{
		W:    newParam(name+".weight", spec.OutC, fanIn),
		B:    newParam(name+".bias", spec.OutC),
		Spec: spec,
	}
	tensor.FillKaiming(c.W.Value, fanIn, rng)
	return c
}

type convCache struct {
	cols *tensor.Tensor
	n    int
}

var convCaches parallel.Pool[convCache]

// Forward lowers the input and multiplies against the filter matrix,
// producing an NCHW output.
func (c *Conv2d) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: Conv2d got input %v", x.Shape()))
	}
	n := x.Dim(0)
	oh, ow := c.Spec.OutH(), c.Spec.OutW()
	cols := a.Get(n*oh*ow, c.Spec.InC*c.Spec.Kernel*c.Spec.Kernel)
	tensor.Im2ColInto(cols, x, c.Spec)
	out := a.Get(n*oh*ow, c.Spec.OutC)
	tensor.MatMulTInto(out, cols, c.W.Value, false)
	tensor.AddBias(out, c.B.Value)
	y := a.Get(n, c.Spec.OutC, oh, ow)
	rowsToNCHW(y, out, n, c.Spec.OutC, oh, ow)
	if !train {
		return y, nil
	}
	cc := convCaches.Get()
	cc.cols, cc.n = cols, n
	return y, cc
}

// Backward computes filter/bias gradients (accumulating directly into the
// Grad tensors) and the input gradient via the col2im adjoint.
func (c *Conv2d) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	cc := cache.(*convCache)
	oh, ow := c.Spec.OutH(), c.Spec.OutW()
	// NCHW grad -> (n·oh·ow, outC) rows matching im2col layout.
	gRows := a.Get(cc.n*oh*ow, c.Spec.OutC)
	nchwToRows(gRows, gradOut, cc.n, c.Spec.OutC, oh, ow)
	// dW (outC, inC·k·k) += gRowsᵀ · cols
	tensor.TMatMulInto(c.W.Grad, gRows, cc.cols, true)
	tensor.SumRowsInto(c.B.Grad, gRows, true)
	// dcols (n·oh·ow, inC·k·k) = gRows · W
	dCols := a.Get(cc.n*oh*ow, c.Spec.InC*c.Spec.Kernel*c.Spec.Kernel)
	tensor.MatMulInto(dCols, gRows, c.W.Value, false)
	// Col2ImZeroInto runs the parallel gather kernel and zeroes each output
	// strip in-worker, so the arena tensor needs no serial pre-zeroing pass.
	dx := a.Get(cc.n, c.Spec.InC, c.Spec.InH, c.Spec.InW)
	tensor.Col2ImZeroInto(dx, dCols, c.Spec, cc.n)
	cc.cols = nil
	convCaches.Put(cc)
	return dx
}

// Params returns the filter matrix and bias.
func (c *Conv2d) Params() []*Param { return []*Param{c.W, c.B} }

func rowsToNCHW(out, rows *tensor.Tensor, n, ch, oh, ow int) {
	hw := oh * ow
	od, rd := out.Data(), rows.Data()
	for r := 0; r < n*hw; r++ {
		img := r / hw
		pos := r % hw
		for oc := 0; oc < ch; oc++ {
			od[(img*ch+oc)*hw+pos] = rd[r*ch+oc]
		}
	}
}

func nchwToRows(rows, t *tensor.Tensor, n, ch, oh, ow int) {
	hw := oh * ow
	rd, td := rows.Data(), t.Data()
	for r := 0; r < n*hw; r++ {
		img := r / hw
		pos := r % hw
		for oc := 0; oc < ch; oc++ {
			rd[r*ch+oc] = td[(img*ch+oc)*hw+pos]
		}
	}
}

// MaxPool halves spatial dimensions with a 2×2/stride-2 max pool.
type MaxPool struct{}

type poolCache struct {
	arg     []int32
	inShape []int
}

var poolCaches parallel.Pool[poolCache]

// Forward pools and caches argmax indices.
func (mp MaxPool) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if !train {
		return mp.Infer(a, x), nil
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	y := a.Get(n, c, h/2, w/2)
	pc := poolCaches.Get()
	if cap(pc.arg) < y.Len() {
		pc.arg = make([]int32, y.Len())
	}
	pc.arg = pc.arg[:y.Len()]
	tensor.MaxPool2x2Into(y, pc.arg, x)
	pc.inShape = append(pc.inShape[:0], x.Shape()...)
	return y, pc
}

// Infer pools without tracking argmax positions (nothing will scatter
// gradients back), so the inference forward needs no index scratch and no
// pool traffic.
func (MaxPool) Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	y := a.Get(n, c, h/2, w/2)
	tensor.MaxPool2x2Into(y, nil, x)
	return y
}

// Backward scatters gradient to argmax positions.
func (MaxPool) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*poolCache)
	dx := a.GetZeroed(c.inShape...)
	tensor.MaxPool2x2BackwardInto(dx, gradOut, c.arg)
	poolCaches.Put(c)
	return dx
}

// Params returns nil: pooling has no parameters.
func (MaxPool) Params() []*Param { return nil }
