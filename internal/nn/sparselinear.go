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
// weights exist anywhere: the forward pass is the transposed-CSR SpMM
// y = x·Wᵀ against the (out, in) pattern, the input gradient is the same
// kernel against a cached Transpose(), and the weight gradient is SDDMM
// restricted to the pattern — gradient entries for pruned weights are never
// materialized, so the whole model state downstream (capture, all-reduce,
// optimizer) is sized fφ with no masking step.
//
// Because sparse kernels only win past a density threshold (Hoefler et al.
// 2021), each product asks the sparse/dense crossover (sparse.XoverDecide,
// a rule over the pattern's density alone — so the path, and with it the
// result bits, is a function of the layer, never of timing): a layer at or
// below 75% sparsity runs a dense GEMM over a lazily materialized
// masked-dense copy of the weight, while the weight gradient stays SDDMM on
// either path (the dense-masked weight-gradient would materialize exactly
// the pruned entries this layer exists to avoid). The Exec field pins the
// choice per layer.
//
// The optimizer sees the weight as Wv — a rank-1 parameter of length NNZ
// whose Value aliases W.Val — so core.ModelState drives it through its
// ordinary dense-vector path: θ32/∇θ16/∇θ32/os all have length NNZ and the
// fp16 down-cast writes straight into the CSR values the kernels read. The
// cached transpose and the dense-masked copy are refreshed from W.Val at
// use time (weights only change between step boundaries, never between a
// microbatch's forward and backward).
type SparseLinear struct {
	// W is the primary pattern: (out, in) CSR — row j holds output neuron
	// j's surviving input weights. Wv.Value aliases W.Val, so optimizer
	// writes are immediately visible to the kernels.
	W *sparse.CSR
	// Wt caches Transpose(W) (in, out) for the input gradient; its values
	// are refreshed from W.Val through wtPerm before each use.
	Wt     *sparse.CSR
	wtPerm []int32

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
	return NewSparseLinearCSR(name, sparse.CSRFromDenseIndexed(ix, w.Data(), w.Dim(0), w.Dim(1)))
}

// NewSparseLinearCSR builds the layer from an already materialized (in, out)
// CSR weight — the output of prune.Result.MaterializeCSR. The matrix is
// transposed once into the (out, in) primary the kernels want; the caller's
// CSR is not retained.
func NewSparseLinearCSR(name string, w *sparse.CSR) *SparseLinear {
	in, out := w.Rows, w.Cols
	W := w.Transpose()
	Wt, perm := W.TransposePerm()
	l := &SparseLinear{W: W, Wt: Wt, wtPerm: perm, in: in, out: out}
	l.Wv = &Param{Name: name + ".weight",
		Value: tensor.FromSlice(W.Val, len(W.Val)),
		Grad:  tensor.New(len(W.Val))}
	// The CSR structure (two patterns plus the refresh permutation) is
	// model state the dense layer does not carry; expose it to the memory
	// ledger.
	l.Wv.MetaBytes = 4 * int64(len(W.RowPtr)+len(W.ColIdx)+
		len(Wt.RowPtr)+len(Wt.ColIdx)+len(perm))
	l.B = newParam(name+".bias", out)
	return l
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

type sparseLinearCache struct{ x *tensor.Tensor }

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

// syncWt refreshes the cached transpose's values from the primary pattern.
// Per-backward on purpose: the layer cannot observe optimizer steps, and
// the O(nnz) gather is ≤1/batch of the O(batch·nnz) product it precedes.
func (l *SparseLinear) syncWt() {
	sparse.Gather(l.Wt.Val, l.W.Val, l.wtPerm)
}

// Forward computes y = x·Wᵀ + b for x (n, in) — transposed-CSR SpMM on the
// sparse path, a dense A·Bᵀ GEMM over the masked-dense weight otherwise.
func (l *SparseLinear) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	if x.Rank() != 2 || x.Dim(1) != l.in {
		panic(fmt.Sprintf("nn: SparseLinear(%d,%d) got input %v", l.in, l.out, x.Shape()))
	}
	n := x.Dim(0)
	y := a.Get(n, l.out)
	if l.decide(sparse.XoverOpForward, n, l.in, l.out) == sparse.XoverDense {
		// In training the copy stays valid through this microbatch's
		// backward (an optimizer step cannot intervene).
		l.syncDense(train)
		tensor.MatMulTInto(y, x, l.denseW, false)
	} else {
		l.dropDense()
		l.W.SpMMTInto(y, x)
	}
	tensor.AddBias(y, l.B.Value)
	if !train {
		return y, nil
	}
	c := sparseLinearCaches.Get()
	c.x = x
	return y, c
}

// Backward accumulates dW on the pattern via SDDMM (pruned entries are
// never computed), db via a row sum, and returns dx = dy·W — the
// transposed-CSR SpMM against the cached transpose on the sparse path, a
// dense GEMM otherwise.
func (l *SparseLinear) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*sparseLinearCache)
	nb := gradOut.Dim(0)
	// Weight gradient, always sampled at the pattern: SDDMM row-dots need
	// both operands feature-major, so transpose into arena scratch (two
	// parallel copies, O(nb·(in+out)) against the products' O(nnz·nb)).
	dyT := a.Get(l.out, nb)
	tensor.TransposeInto(dyT, gradOut)
	xT := a.Get(l.in, nb)
	tensor.TransposeInto(xT, c.x)
	l.W.SDDMMInto(l.Wv.Grad.Data(), dyT, xT, true)
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
		l.syncWt()
		l.Wt.SpMMTInto(dx, gradOut)
	}
	c.x = nil
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
// place: W's CSR shrinks, the cached transpose and its refresh permutation
// are rebuilt inside their existing backing arrays, the masked-dense
// fallback (which addresses the old pattern) is dropped — the next product
// re-materializes it if the shrunk pattern still runs dense — and
// Wv re-heads onto the compacted value prefix so the optimizer state
// vectors can shrink in lockstep. Weight values are untouched: kept
// weights keep their exact bits.
func (l *SparseLinear) ShrinkPattern(keep []bool) {
	if len(keep) != l.W.NNZ() {
		panic(fmt.Sprintf("nn: ShrinkPattern keep length %d, want %d", len(keep), l.W.NNZ()))
	}
	if l.Wv.Grad != nil {
		// Compact the gradient accumulator alongside the values (it is
		// zero between steps, but mid-step callers keep a coherent view).
		g := l.Wv.Grad.Data()
		w := 0
		for i, k := range keep {
			if k {
				g[w] = g[i]
				w++
			}
		}
	}
	l.W.ShrinkTo(keep)
	l.wtPerm = l.W.TransposePermInto(l.Wt, l.wtPerm)
	l.dropDense()
	nnz := l.W.NNZ()
	l.Wv.Value = tensor.FromSlice(l.W.Val, nnz)
	if l.Wv.Grad != nil {
		l.Wv.Grad = tensor.FromSlice(l.Wv.Grad.Data()[:nnz], nnz)
	}
	l.Wv.MetaBytes = 4 * int64(len(l.W.RowPtr)+len(l.W.ColIdx)+
		len(l.Wt.RowPtr)+len(l.Wt.ColIdx)+len(l.wtPerm))
}
