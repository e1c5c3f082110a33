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
// Because sparse kernels only win past a density threshold (Hoefler et al.
// 2021), each product asks the sparse/dense crossover (sparse.XoverDecide,
// a rule over the pattern's density alone — so the path, and with it the
// result bits, is a function of the layer, never of timing): a layer less
// than 50% sparse runs a dense GEMM over a lazily materialized masked-dense
// copy of the weight, while the weight gradient stays SDDMM on either path
// (the dense-masked weight-gradient would materialize exactly the pruned
// entries this layer exists to avoid). The Exec field pins the choice per
// layer.
//
// The optimizer sees the weight as Wv — a rank-1 parameter of length NNZ
// whose Value aliases W.Val — so core.ModelState drives it through its
// ordinary dense-vector path: θ32/∇θ16/os all have length NNZ and the
// fp16 down-cast writes straight into the CSR values the kernels read. The
// dense-masked copy is refreshed from W.Val at use time (weights only
// change between step boundaries, never between a microbatch's forward and
// backward).
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

	// Exec pins this layer's execution path (benchmarks, the pure-sparse
	// baseline); ExecAuto asks the crossover rule.
	Exec ExecMode

	in, out int

	// Masked-dense fallback state: present iff the layer's last product ran
	// dense. denseFresh marks the copy as synced by THIS microbatch's
	// Forward, letting its Backward skip the O(out·in) re-materialization
	// (weights cannot change between a microbatch's forward and backward —
	// only at step boundaries).
	denseW     *tensor.Tensor // (out, in), zeros at pruned positions
	denseIx    *sparse.Index  // scatter map: pattern order -> (out, in) view
	denseFresh bool
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

// ExecMode selects a SparseLinear's execution path.
type ExecMode uint8

const (
	// ExecAuto follows sparse.XoverDecide's density rule (the default).
	ExecAuto ExecMode = iota
	// ExecSparse always runs the CSR kernels.
	ExecSparse
	// ExecDense always runs the dense GEMM over the masked-dense weight.
	ExecDense
)

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
// the CSR forward already built as its own, and the forward input x (n, in)
// itself, which lives as long as the step's arena does.
type sparseLinearCache struct{ x, xT *tensor.Tensor }

var sparseLinearCaches parallel.Pool[sparseLinearCache]

// decide resolves the execution path for one product of this layer.
func (l *SparseLinear) decide(op sparse.XoverOp, m, k, n int) sparse.XoverChoice {
	switch l.Exec {
	case ExecSparse:
		return sparse.XoverSparse
	case ExecDense:
		return sparse.XoverDense
	}
	_, c, _ := sparse.XoverDecide(op, m, k, n, l.W.NNZ(), l.in*l.out)
	return c
}

// dropDense releases the masked-dense copy: on the sparse path it is dead
// weight exactly where SAMO wants memory back.
func (l *SparseLinear) dropDense() {
	l.denseW, l.denseIx, l.denseFresh = nil, nil, false
}

// syncDense (re)materializes the masked-dense (out, in) weight from the
// current CSR values: zero-fill plus pattern scatter, both parallel and
// allocation-free after the first call. fresh=true marks the copy valid
// for the rest of this microbatch (consumed by Backward).
func (l *SparseLinear) syncDense(fresh bool) {
	if l.denseW == nil {
		l.denseW = tensor.New(l.out, l.in)
		l.denseIx = sparse.IndexFromSlice(l.W.LinearIDs(), l.out*l.in)
	}
	l.denseIx.Expand(l.denseW.Data(), l.W.Val)
	l.denseFresh = fresh
}

// Forward computes y = x·Wᵀ + b for x (n, in) — transposed-CSR SpMM on the
// sparse path, a dense A·Bᵀ GEMM over the masked-dense weight otherwise.
// The CSR kernel reads x feature-major, so the sparse path (and training on
// either path, for the backward SDDMM) transposes x into arena scratch: one
// O(n·in) copy against the product's O(n·nnz).
func (l *SparseLinear) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if x.Rank() != 2 || x.Dim(1) != l.in {
		panic(fmt.Sprintf("nn: SparseLinear(%d,%d) got input %v", l.in, l.out, x.Shape()))
	}
	n := x.Dim(0)
	y := a.Get(n, l.out)
	dense := l.decide(sparse.XoverOpForward, n, l.in, l.out) == sparse.XoverDense
	var xT *tensor.Tensor
	if train || !dense {
		xT = a.Get(l.in, n)
		tensor.TransposeInto(xT, x)
	}
	if dense {
		// In training the copy stays valid through this microbatch's
		// backward (an optimizer step cannot intervene).
		l.syncDense(train)
		tensor.MatMulTInto(y, x, l.denseW, false)
	} else {
		l.dropDense()
		l.W.TSpMMTInto(y, xT)
	}
	tensor.AddBias(y, l.B.Value)
	if !train {
		return y, nil
	}
	c := sparseLinearCaches.Get()
	c.x, c.xT = x, xT
	return y, c
}

// Backward accumulates dW on the pattern via SDDMM (pruned entries are
// never computed), db via a row sum, and returns dx = dy·W — on the sparse
// path the SpMM dxᵀ = Wᵀ·dyᵀ walking W's rows, transposed into dx; a dense
// GEMM otherwise.
func (l *SparseLinear) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*sparseLinearCache)
	nb := gradOut.Dim(0)
	// Weight gradient, always sampled at the pattern: SDDMM row-dots read
	// dyᵀ, transposed into arena scratch here (the CSR input gradient reads
	// it as well), against xᵀ or x from the forward.
	dyT := a.Get(l.out, nb)
	tensor.TransposeInto(dyT, gradOut)
	l.W.SDDMMInto(l.Wv.Grad.Data(), dyT, c.xT, true, c.x)
	tensor.SumRowsInto(l.B.Grad, gradOut, true)

	dx := a.Get(nb, l.in)
	if l.decide(sparse.XoverOpBackward, nb, l.out, l.in) == sparse.XoverDense {
		// Skip the O(out·in) re-materialization when this microbatch's
		// forward already synced the copy.
		if !l.denseFresh {
			l.syncDense(false)
		}
		l.denseFresh = false
		tensor.MatMulInto(dx, gradOut, l.denseW, false)
	} else {
		l.dropDense()
		dxT := a.Get(l.in, nb)
		l.W.TSpMMInto(dxT, dyT)
		tensor.TransposeInto(dx, dxT)
	}
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
// place: W's CSR shrinks, the masked-dense fallback (which addresses the
// old pattern) is dropped — the next product re-materializes it if the
// shrunk pattern still runs dense — and Wv re-heads onto the compacted
// value prefix so the optimizer state vectors can shrink in lockstep.
// Weight values are untouched: kept weights keep their exact bits.
func (l *SparseLinear) ShrinkPattern(keep []bool) {
	if len(keep) != l.W.NNZ() {
		panic(fmt.Sprintf("nn: ShrinkPattern keep length %d, want %d", len(keep), l.W.NNZ()))
	}
	if l.Wv.Grad != nil {
		// Compact the gradient accumulator alongside the values (it is
		// zero between steps, but mid-step callers keep a coherent view).
		sparse.Compact(l.Wv.Grad.Data(), keep)
	}
	l.W.ShrinkTo(keep)
	l.dropDense()
	nnz := l.W.NNZ()
	l.Wv.Value = tensor.FromSlice(l.W.Val, nnz)
	if l.Wv.Grad != nil {
		l.Wv.Grad = tensor.FromSlice(l.Wv.Grad.Data()[:nnz], nnz)
	}
	l.setMetaBytes()
}
