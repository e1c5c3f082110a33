package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// sparsePair builds a masked-dense Linear and a Sparsify'd Linear holding
// the same pruned weights and bias.
func sparsePair(in, out int, sparsity float64, seed uint64) (*Linear, *Linear, *sparse.Index) {
	rng := tensor.NewRNG(seed)
	dense := NewLinear("fc", in, out, rng)
	tensor.FillNormal(dense.B.Value, 0.5, rng)
	pr := prune.MagnitudePerLayer(
		[]prune.Layer{{Name: "fc.weight", Values: dense.W.Value.Data()}}, sparsity)
	ix := pr.Index("fc.weight")
	ix.Mask().Apply(dense.W.Value.Data())
	sl := csrLinear(dense.W.Value, ix)
	sl.B.Value.CopyFrom(dense.B.Value)
	return dense, sl, ix
}

// csrLinear builds a Linear over a copy of the (in, out) weight w and
// Sparsifies it onto ix.
func csrLinear(w *tensor.Tensor, ix *sparse.Index) *Linear {
	l := NewLinear("fc", w.Dim(0), w.Dim(1), tensor.NewRNG(0))
	l.W.Value.CopyFrom(w)
	Sparsify(&Model{Layers: []Layer{l}}, &prune.Result{Indices: map[string]*sparse.Index{"fc.weight": ix}})
	return l
}

// TestSparseLinearMatchesMaskedDense pins a CSR weight's kernels, below and
// above the half-density line, against the masked-dense nn.Linear
// reference: same outputs, same input gradients, weight gradients equal to
// the dense gradient restricted to the pattern, in the index's order (and NO
// entries beyond it), same bias gradients. Run through an arena, as the
// trainer drives it.
func TestSparseLinearMatchesMaskedDense(t *testing.T) {
	for _, sparsity := range []float64{0.3, 0.8} {
		t.Run(fmt.Sprintf("sparsity=%g", sparsity), func(t *testing.T) {
			dense, sl, ix := sparsePair(12, 9, sparsity, 1)
			x := tensor.New(5, 12)
			tensor.FillNormal(x, 1, tensor.NewRNG(2))
			gy := tensor.New(5, 9)
			tensor.FillNormal(gy, 1, tensor.NewRNG(3))
			arena := tensor.NewArena()

			yd, cd := dense.Forward(nil, x, true)
			dense.W.ZeroGrad()
			dense.B.ZeroGrad()
			dxD := dense.Backward(nil, cd, gy)

			ys, cs := sl.Forward(arena, x, true)
			if d := tensor.MaxAbsDiff(yd, ys); d > 1e-4 {
				t.Errorf("forward diff %g", d)
			}
			dxS := sl.Backward(arena, cs, gy)
			if d := tensor.MaxAbsDiff(dxD, dxS); d > 1e-4 {
				t.Errorf("input grad diff %g", d)
			}
			if d := tensor.MaxAbsDiff(dense.B.Grad, sl.B.Grad); d > 1e-4 {
				t.Errorf("bias grad diff %g", d)
			}
			// The sparse weight gradient is the dense one sampled at the
			// pattern, stored in the index's own order.
			want := make([]float32, ix.NNZ())
			ix.Compress(want, dense.W.Grad.Data())
			for i, g := range sl.W.Grad.Data() {
				if math.Abs(float64(want[i]-g)) > 1e-3 {
					t.Fatalf("weight grad %d: dense %g vs sparse %g", i, want[i], g)
				}
			}
			// No gradient storage exists beyond the pattern at all: the
			// parameter is exactly NNZ long.
			if sl.W.Grad.Len() != ix.NNZ() {
				t.Fatalf("gradient vector has %d entries, want exactly %d", sl.W.Grad.Len(), ix.NNZ())
			}
			arena.Reset()
		})
	}
}

// TestSparseLinearOptimizerAliasing pins the W.Value/W.CSR.Val alias both
// kernels' weight views depend on: a write through the parameter (what the
// optimizer's down-cast does) must be visible to the forward product and to
// the input gradient, which walks the same values.
func TestSparseLinearOptimizerAliasing(t *testing.T) {
	_, sl, _ := sparsePair(8, 6, 0.5, 5)
	x := tensor.New(3, 8)
	tensor.FillNormal(x, 1, tensor.NewRNG(6))
	for i, v := range sl.W.Value.Data() {
		sl.W.Value.Data()[i] = 2 * v
	}
	sl.B.Value.Zero()
	y, c := sl.Forward(nil, x, true)
	// Forward must see the doubled weights through the alias.
	ref := tensor.MatMul(x, sl.W.CSR.Dense())
	if d := tensor.MaxAbsDiff(y, ref); d > 1e-4 {
		t.Fatalf("forward does not see optimizer writes: diff %g", d)
	}
	// The backward's input gradient must also see them.
	gy := tensor.New(3, 6)
	tensor.FillNormal(gy, 1, tensor.NewRNG(7))
	dx := sl.Backward(nil, c, gy)
	refDx := tensor.MatMulT(gy, sl.W.CSR.Dense())
	if d := tensor.MaxAbsDiff(dx, refDx); d > 1e-4 {
		t.Fatalf("input gradient does not see optimizer writes: diff %g", d)
	}
}

// TestSparsify checks the conversion: pruned Linears of the model itself
// get a CSR weight with the same bias and masked weights, in the index's
// order, other layers pass through, and the sparse model's eval forward
// matches the masked-dense twin.
func TestSparsify(t *testing.T) {
	build := func() (*Model, *prune.Result) {
		m := BuildMLP("mlp", []int{16, 32, 8}, tensor.NewRNG(11))
		var layers []prune.Layer
		for _, e := range m.PruneLayers() {
			layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
		}
		pr := prune.MagnitudePerLayer(layers, 0.75)
		for _, e := range m.PruneLayers() {
			pr.Index(e.Name).Mask().Apply(e.Param.Value.Data())
		}
		return m, pr
	}
	m, _ := build() // the reference masked-dense model
	base, pr := build()
	sm := Sparsify(base, pr)
	if sm != base || len(sm.Layers) != len(m.Layers) {
		t.Fatalf("Sparsify returned another model, or the layer count changed: %d vs %d", len(sm.Layers), len(m.Layers))
	}
	nSparse := 0
	for i, l := range sm.Layers {
		lin, ok := l.(*Linear)
		if !ok || lin.W.CSR == nil {
			continue
		}
		nSparse++
		ix := pr.Index(lin.W.Name)
		want := make([]float32, ix.NNZ())
		ix.Compress(want, m.Layers[i].(*Linear).W.Value.Data())
		if d := tensor.MaxAbsDiff(lin.W.Value, tensor.FromSlice(want, len(want))); d != 0 || &lin.W.Value.Data()[0] != &lin.W.CSR.Val[0] {
			t.Fatalf("%s: stored weights differ from the compressed dense ones by %g, or do not alias the CSR", lin.W.Name, d)
		}
	}
	if nSparse != 2 {
		t.Fatalf("sparsified %d layers, want 2", nSparse)
	}
	x := tensor.New(4, 16)
	tensor.FillNormal(x, 1, tensor.NewRNG(12))
	yd, _ := m.Forward(x, false)
	ys, _ := sm.Forward(x, false)
	if d := tensor.MaxAbsDiff(yd, ys); d > 1e-4 {
		t.Fatalf("sparsified model diverges from masked-dense: %g", d)
	}
}
