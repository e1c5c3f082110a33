package nn

import (
	"fmt"
	"math"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

const normEps = 1e-5

// LayerNorm normalizes each row of an (n, d) tensor to zero mean and unit
// variance, then applies a learned affine transform — the normalization used
// throughout GPT-style transformers.
type LayerNorm struct {
	Gamma, Beta *Param
	d           int
}

// NewLayerNorm creates a LayerNorm over feature dimension d (γ=1, β=0).
func NewLayerNorm(name string, d int) *LayerNorm {
	ln := &LayerNorm{Gamma: newParam(name+".gamma", d), Beta: newParam(name+".beta", d), d: d}
	ln.Gamma.Value.Fill(1)
	return ln
}

type lnCache struct {
	xhat   *tensor.Tensor
	invStd []float32
}

var lnCaches parallel.Pool[lnCache]

// Forward normalizes rows and applies γ,β.
func (ln *LayerNorm) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if !train {
		return ln.Infer(a, x), nil
	}
	if x.Rank() != 2 || x.Dim(1) != ln.d {
		panic(fmt.Sprintf("nn: LayerNorm(%d) got input %v", ln.d, x.Shape()))
	}
	n, d := x.Dim(0), ln.d
	y := a.Get(n, d)
	c := lnCaches.Get()
	c.xhat = a.Get(n, d)
	if cap(c.invStd) < n {
		c.invStd = make([]float32, n)
	}
	c.invStd = c.invStd[:n]
	xhat, invStd := c.xhat, c.invStd
	g, b := ln.Gamma.Value.Data(), ln.Beta.Value.Data()
	for i := 0; i < n; i++ {
		row := x.Data()[i*d : (i+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var varr float64
		for _, v := range row {
			dv := float64(v) - mean
			varr += dv * dv
		}
		varr /= float64(d)
		is := float32(1 / math.Sqrt(varr+normEps))
		invStd[i] = is
		xr := xhat.Data()[i*d : (i+1)*d]
		yr := y.Data()[i*d : (i+1)*d]
		for j, v := range row {
			xh := (v - float32(mean)) * is
			xr[j] = xh
			yr[j] = g[j]*xh + b[j]
		}
	}
	return y, c
}

// Infer normalizes rows without materializing x̂: the normalized value is
// folded straight into the affine output, so the inference forward needs no
// cache tensor and no pool traffic.
func (ln *LayerNorm) Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != ln.d {
		panic(fmt.Sprintf("nn: LayerNorm(%d) got input %v", ln.d, x.Shape()))
	}
	n, d := x.Dim(0), ln.d
	y := a.Get(n, d)
	g, b := ln.Gamma.Value.Data(), ln.Beta.Value.Data()
	for i := 0; i < n; i++ {
		row := x.Data()[i*d : (i+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var varr float64
		for _, v := range row {
			dv := float64(v) - mean
			varr += dv * dv
		}
		varr /= float64(d)
		is := float32(1 / math.Sqrt(varr+normEps))
		yr := y.Data()[i*d : (i+1)*d]
		for j, v := range row {
			xh := (v - float32(mean)) * is
			yr[j] = g[j]*xh + b[j]
		}
	}
	return y
}

// Backward computes input, γ and β gradients with the standard LayerNorm
// backward identity.
func (ln *LayerNorm) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*lnCache)
	n, d := gradOut.Dim(0), ln.d
	dx := a.Get(n, d)
	g := ln.Gamma.Value.Data()
	dg, db := ln.Gamma.Grad.Data(), ln.Beta.Grad.Data()
	for i := 0; i < n; i++ {
		dy := gradOut.Data()[i*d : (i+1)*d]
		xh := c.xhat.Data()[i*d : (i+1)*d]
		// Accumulate parameter grads and the two row means.
		var m1, m2 float64 // mean(dxhat), mean(dxhat*xhat)
		for j := 0; j < d; j++ {
			dg[j] += dy[j] * xh[j]
			db[j] += dy[j]
			dxh := float64(dy[j] * g[j])
			m1 += dxh
			m2 += dxh * float64(xh[j])
		}
		m1 /= float64(d)
		m2 /= float64(d)
		out := dx.Data()[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			dxh := float64(dy[j] * g[j])
			out[j] = float32((dxh - m1 - float64(xh[j])*m2)) * c.invStd[i]
		}
	}
	c.xhat = nil
	lnCaches.Put(c)
	return dx
}

// Params returns γ and β.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }
