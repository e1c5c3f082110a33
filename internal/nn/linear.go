package nn

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b with W of shape (in, out).
// FC layers are the paper's Figure 1 workload and dominate transformer
// compute; their weights are the primary pruning target.
//
// A pruned weight may be stored as a CSR of that same (in, out) matrix
// (W.CSR, set by Sparsify): then only the surviving weights exist anywhere,
// the products are the CSR kernels — the Sputnik-style sparse execution the
// paper's Figure 1 argues about — and the weight gradient is SDDMM sampled
// at the pattern, so no gradient entry for a pruned weight is ever formed.
// The CSR kernels read and write their dense operands feature-major and run
// lanes across the batch: the forward transposes x into xᵀ (kept for the
// backward's SDDMM) and writes yᵀ, which it transposes into y; the backward
// transposes dy into dyᵀ, which feeds both the SDDMM and the input
// gradient, written straight into dx.
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

// Sparsify stores the weight of every pruned top-level Linear of m as the
// CSR of its surviving entries, in place, and returns m: W.Value becomes
// the NNZ-long view of the CSR's values and W.Grad an NNZ-long accumulator.
// Unpruned Linears and all other layers are untouched. Build the model's
// ModelState or InferenceState after sparsifying it.
//
// Every converted layer runs CSR, however lightly pruned. Time of one
// layer's forward+backward below half sparsity (10%, 30%, 49%), divided by
// CSR's: the masked-dense products (dense GEMMs, SDDMM weight gradient)
// and a masked *Linear (dense weight gradient too). 2 workers, the fastest
// of 21–35 steps per side, the sides alternated; three runs on a 2-vCPU
// host:
//
//	                   masked-dense products   masked *Linear
//	shape              batch 48   batch 576    batch 48   batch 576
//	640×640, 512×640   1.30–2.29  0.72–1.28    1.16–1.93  0.57–1.20
//	640×64             0.93–1.47  0.77–1.03    0.77–1.06  0.68–0.97
//
// At batch 48, the sparse workloads' batch, CSR wins on the wide layers. A
// narrow layer, or any layer at batch 576, is level or faster as a masked
// *Linear below half sparsity: leave such a model unsparsified.
func Sparsify(m *Model, pr *prune.Result) *Model {
	for _, l := range m.Layers {
		lin, ok := l.(*Linear)
		if !ok {
			continue
		}
		ix := pr.Index(lin.W.Name)
		if ix == nil {
			continue // not pruned: keep dense
		}
		w := sparse.CSRFromIndex(ix, lin.W.Value.Data(), lin.in, lin.out)
		lin.W.CSR = w
		lin.W.Value = tensor.FromSlice(w.Val, len(w.Val))
		lin.W.Grad = tensor.New(len(w.Val))
	}
	return m
}

// SparseLinear is never constructed: a sparse FC layer is a *Linear whose
// W.CSR is set. The type stays only because bench/ still names it; ROADMAP.md
// item 2 deletes it together with sparse.Transposed.
type SparseLinear struct {
	Layer
	W  *sparse.CSR
	Wt sparse.Transposed
}

// linearCache holds what the backward reads of the forward: its input x,
// or xᵀ for a CSR weight (the SDDMM's feature-major operand).
type linearCache struct{ x *tensor.Tensor }

var linearCaches parallel.Pool[linearCache]

// Forward computes y = x·W + b for x of shape (n, in): a GEMM, or for a CSR
// weight the SpMM yᵀ = Wᵀ·xᵀ between two transposes — O(n·(in+out)) copies
// against the product's O(n·nnz).
func (l *Linear) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if x.Rank() != 2 || x.Dim(1) != l.in {
		panic(fmt.Sprintf("nn: Linear(%d,%d) got input %v", l.in, l.out, x.Shape()))
	}
	n := x.Dim(0)
	y := a.Get(n, l.out)
	if w := l.W.CSR; w == nil {
		tensor.MatMulInto(y, x, l.W.Value, false)
	} else {
		xT := a.Get(l.in, n)
		tensor.TransposeInto(xT, x)
		yT := a.Get(l.out, n)
		w.TSpMMInto(yT, xT)
		tensor.TransposeInto(y, yT)
		x = xT
	}
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
// temporaries). For a CSR weight dW is SDDMM on the pattern, against dyᵀ
// and dy itself (the windowed kernel's batch-major operand), and dx is the
// SpMM dy·Wᵀ from the same dyᵀ.
func (l *Linear) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*linearCache)
	n := gradOut.Dim(0)
	dx := a.Get(n, l.in)
	if w := l.W.CSR; w == nil {
		tensor.TMatMulInto(l.W.Grad, c.x, gradOut, true)
		tensor.SumRowsInto(l.B.Grad, gradOut, true)
		tensor.MatMulTInto(dx, gradOut, l.W.Value, false)
	} else {
		dyT := a.Get(l.out, n)
		tensor.TransposeInto(dyT, gradOut)
		w.SDDMMInto(l.W.Grad.Data(), c.x, dyT, true, gradOut)
		tensor.SumRowsInto(l.B.Grad, gradOut, true)
		w.TSpMMTInto(dx, dyT)
	}
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
