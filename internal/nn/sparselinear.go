package nn

import (
	"fmt"
	"strings"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// SparseLinear is a fully connected layer whose pruned weight lives in CSR
// and whose hot paths run real sparse kernels — the first-class sparse
// execution path the paper's Figure 1 argues about. Only the surviving
// weights exist anywhere, in one CSR: the forward pass is the
// transposed-CSR SpMM y = x·Wᵀ against the (out, in) pattern, the input
// gradient dxᵀ = Wᵀ·dyᵀ walks the same pattern's rows in place (no
// transpose of W is stored), and the weight gradient is SDDMM restricted to
// the pattern — gradient entries for pruned weights are never materialized,
// so the whole model state downstream (capture, all-reduce, optimizer) is
// sized fφ with no masking step.
//
// The CSR products read their dense operand feature-major (xᵀ, dyᵀ) and
// run lanes across the batch, so the forward transposes x into arena
// scratch, keeps xᵀ — and x itself — for the backward SDDMM, and the
// backward's dyᵀ feeds both the SDDMM and the input-gradient SpMM, whose
// feature-major dxᵀ is transposed back into dx. SDDMM reads x batch-major
// on a pattern at least a quarter dense, xᵀ otherwise; both give the same
// bits.
//
// The layer runs CSR at every density. A pruned weight meant to compute
// densely stays a *Linear under a masked model state (core.Dense or SAMO) —
// the paper's masked-dense path.
//
// The optimizer sees the weight as Wv — a rank-1 parameter of length NNZ
// whose Value aliases W.Val — so core.ModelState drives it through its
// ordinary dense-vector path: θ32/∇θ16/os all have length NNZ and the
// fp16 down-cast writes straight into the CSR values the kernels read.
type SparseLinear struct {
	// W is the primary pattern: (out, in) CSR — row j holds output neuron
	// j's surviving input weights. Wv.Value aliases W.Val, so optimizer
	// writes are immediately visible to the kernels.
	W *sparse.CSR
	// Wt is W's transpose as a view: it stores nothing, and its product is
	// the input gradient dx = dy·W walked from W's rows.
	Wt sparse.Transposed

	// Wv is the weight parameter in pattern order (rank-1, length NNZ);
	// B is the dense bias.
	Wv, B *Param

	in, out int
}

// PatternLayer is a layer whose parameter support can shrink during
// training — the hook in-training gradual pruning drives. The pattern is a
// set of surviving positions over a hypothetical dense view of one rank-1
// parameter (PatternParam, values in stored pattern order); ShrinkPattern
// drops positions in place, so NNZ only ever decreases and no structure is
// reallocated. core.ModelState discovers implementations at construction
// and keeps their stored vectors, optimizer state and reduce-bucket
// segments aligned with the shrinking pattern.
type PatternLayer interface {
	Layer
	// PatternParam returns the pattern-ordered value parameter whose
	// length is the pattern's NNZ.
	PatternParam() *Param
	// PatternFullLen returns the dense-view element count the pattern
	// addresses (the layer's unpruned parameter count).
	PatternFullLen() int
	// PatternIDs returns the strictly increasing linearized dense-view ids
	// of the stored pattern (freshly allocated; checkpoint serialization).
	PatternIDs() []int32
	// ShrinkPattern drops the stored positions where keep is false
	// (keep indexed in stored pattern order), compacting every cached
	// structure in place and re-heading PatternParam onto the compacted
	// prefix.
	ShrinkPattern(keep []bool)
}

// NewSparseLinear materializes the layer from a dense (in, out) weight and
// a pruning index over its linearized view. Only indexed entries are read;
// the bias starts at zero (copy one in for layer surgery).
func NewSparseLinear(name string, w *tensor.Tensor, ix *sparse.Index) *SparseLinear {
	if w.Rank() != 2 {
		panic("nn: NewSparseLinear needs a rank-2 weight")
	}
	return NewSparseLinearCSR(name, sparse.TransposedCSR(ix, w.Data(), w.Dim(0), w.Dim(1)))
}

// NewSparseLinearCSR builds the layer around an (out, in) CSR weight — the
// output of prune.Result.MaterializeCSR — which it keeps: its values become
// the weight parameter.
func NewSparseLinearCSR(name string, W *sparse.CSR) *SparseLinear {
	l := &SparseLinear{W: W, Wt: W.T(), in: W.Cols, out: W.Rows}
	l.Wv = &Param{Name: name + ".weight",
		Value: tensor.FromSlice(W.Val, len(W.Val)),
		Grad:  tensor.New(len(W.Val))}
	l.setMetaBytes()
	l.B = newParam(name+".bias", l.out)
	return l
}

// setMetaBytes exposes the CSR structure — row pointers and column indices,
// model state the dense layer does not carry — to the memory ledger.
func (l *SparseLinear) setMetaBytes() {
	l.Wv.MetaBytes = 4 * int64(len(l.W.RowPtr)+len(l.W.ColIdx))
}

// Sparsify returns a model in which every pruned Linear layer is replaced
// by a SparseLinear built from its weights and the pruning result; all
// other layers (and any unpruned Linear) are shared with the original
// model, parameters included — train one model or the other, not both.
// Biases of converted layers are copied, so the returned model trains
// independently of the original on the paper's FC workloads.
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
	out := &Model{Name: m.Name + "-sparse"}
	for _, l := range m.Layers {
		lin, ok := l.(*Linear)
		if !ok {
			out.Layers = append(out.Layers, l)
			continue
		}
		w := pr.MaterializeCSR(lin.W.Name, lin.W.Value.Data(),
			lin.W.Value.Dim(0), lin.W.Value.Dim(1))
		if w == nil {
			out.Layers = append(out.Layers, l) // not pruned: keep dense
			continue
		}
		sl := NewSparseLinearCSR(strings.TrimSuffix(lin.W.Name, ".weight"), w)
		copy(sl.B.Value.Data(), lin.B.Value.Data())
		out.Layers = append(out.Layers, sl)
	}
	return out
}

// sparseLinearCache holds the backward SDDMM's operands: xᵀ (in, n), which
// the forward built as its own, and the forward input x (n, in)
// itself, which lives as long as the step's arena does.
type sparseLinearCache struct{ x, xT *tensor.Tensor }

var sparseLinearCaches parallel.Pool[sparseLinearCache]

// Forward computes y = x·Wᵀ + b for x (n, in) by transposed-CSR SpMM. The
// CSR kernel reads x feature-major, so x is transposed into arena scratch:
// one O(n·in) copy against the product's O(n·nnz).
func (l *SparseLinear) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if x.Rank() != 2 || x.Dim(1) != l.in {
		panic(fmt.Sprintf("nn: SparseLinear(%d,%d) got input %v", l.in, l.out, x.Shape()))
	}
	n := x.Dim(0)
	y := a.Get(n, l.out)
	xT := a.Get(l.in, n)
	tensor.TransposeInto(xT, x)
	l.W.TSpMMTInto(y, xT)
	tensor.AddBias(y, l.B.Value)
	if !train {
		return y, nil
	}
	c := sparseLinearCaches.Get()
	c.x, c.xT = x, xT
	return y, c
}

// Backward accumulates dW on the pattern via SDDMM (pruned entries are
// never computed), db via a row sum, and returns dx = dy·W: the SpMM
// dxᵀ = Wᵀ·dyᵀ walking W's rows, transposed into dx.
func (l *SparseLinear) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*sparseLinearCache)
	nb := gradOut.Dim(0)
	// dyᵀ, transposed into arena scratch, feeds both the SDDMM row-dots
	// (against xᵀ or x from the forward) and the input gradient.
	dyT := a.Get(l.out, nb)
	tensor.TransposeInto(dyT, gradOut)
	l.W.SDDMMInto(l.Wv.Grad.Data(), dyT, c.xT, true, c.x)
	tensor.SumRowsInto(l.B.Grad, gradOut, true)

	dxT := a.Get(l.in, nb)
	l.W.TSpMMInto(dxT, dyT)
	dx := a.Get(nb, l.in)
	tensor.TransposeInto(dx, dxT)
	c.x, c.xT = nil, nil
	sparseLinearCaches.Put(c)
	return dx
}

// Params returns the compressed weight vector and the bias.
func (l *SparseLinear) Params() []*Param { return []*Param{l.Wv, l.B} }

// PatternParam returns Wv, the NNZ-length weight vector in W's CSR order.
func (l *SparseLinear) PatternParam() *Param { return l.Wv }

// PatternFullLen returns the dense-equivalent weight element count.
func (l *SparseLinear) PatternFullLen() int { return l.in * l.out }

// PatternIDs returns the linearized (out, in)-view ids of the pattern.
func (l *SparseLinear) PatternIDs() []int32 { return l.W.LinearIDs() }

// ShrinkPattern compacts the layer onto the kept pattern positions, in
// place: W's CSR shrinks and Wv re-heads onto the compacted value prefix so
// the optimizer state vectors can shrink in lockstep. Wv.Grad only re-heads
// to the new NNZ: its values are not compacted, because a shrink runs
// between steps, when the gradient is zero.
// Weight values are untouched: kept weights keep their exact bits.
func (l *SparseLinear) ShrinkPattern(keep []bool) {
	if len(keep) != l.W.NNZ() {
		panic(fmt.Sprintf("nn: ShrinkPattern keep length %d, want %d", len(keep), l.W.NNZ()))
	}
	l.W.ShrinkTo(keep)
	nnz := l.W.NNZ()
	l.Wv.Value = tensor.FromSlice(l.W.Val, nnz)
	if l.Wv.Grad != nil {
		l.Wv.Grad = tensor.FromSlice(l.Wv.Grad.Data()[:nnz], nnz)
	}
	l.setMetaBytes()
}
