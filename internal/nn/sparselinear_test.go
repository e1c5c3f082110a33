package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// sparsePair builds a masked-dense Linear and the SparseLinear holding the
// same pruned weights and bias.
func sparsePair(in, out int, sparsity float64, seed uint64) (*Linear, *SparseLinear, *sparse.Index) {
	rng := tensor.NewRNG(seed)
	dense := NewLinear("fc", in, out, rng)
	tensor.FillNormal(dense.B.Value, 0.5, rng)
	pr := prune.MagnitudePerLayer(
		[]prune.Layer{{Name: "fc.weight", Values: dense.W.Value.Data()}}, sparsity)
	ix := pr.Index("fc.weight")
	ix.Mask().Apply(dense.W.Value.Data())
	sl := NewSparseLinear("fc", dense.W.Value, ix)
	copy(sl.B.Value.Data(), dense.B.Value.Data())
	return dense, sl, ix
}

// TestSparseLinearMatchesMaskedDense pins the layer's CSR kernels, below
// and above the half-density line, against the masked-dense nn.Linear
// reference: same outputs, same input gradients, weight gradients equal to
// the dense gradient restricted to the pattern (and NO entries beyond it),
// same bias gradients. Run through an arena, as the trainer drives it.
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
			// pattern — compare through the (out, in) scatter.
			gradDense := tensor.New(9, 12)
			for i := 0; i < 9; i++ {
				for p := sl.W.RowPtr[i]; p < sl.W.RowPtr[i+1]; p++ {
					gradDense.Set(sl.Wv.Grad.Data()[p], i, int(sl.W.ColIdx[p]))
				}
			}
			back := tensor.Transpose(gradDense) // (in, out)
			wantComp := make([]float32, ix.NNZ())
			ix.Compress(wantComp, dense.W.Grad.Data())
			gotComp := make([]float32, ix.NNZ())
			ix.Compress(gotComp, back.Data())
			for i := range wantComp {
				if math.Abs(float64(wantComp[i]-gotComp[i])) > 1e-3 {
					t.Fatalf("weight grad %d: dense %g vs sparse %g", i, wantComp[i], gotComp[i])
				}
			}
			// No gradient storage exists beyond the pattern at all: the
			// parameter is exactly NNZ long.
			if sl.Wv.Grad.Len() != ix.NNZ() {
				t.Fatalf("gradient vector has %d entries, want exactly %d", sl.Wv.Grad.Len(), ix.NNZ())
			}
			arena.Reset()
		})
	}
}

// TestSparseLinearOptimizerAliasing pins the Wv.Value/W.Val alias both
// kernels' weight views depend on: a write through the parameter (what the
// optimizer's down-cast does) must be visible to the forward product and to
// the input gradient, which walks the same values.
func TestSparseLinearOptimizerAliasing(t *testing.T) {
	_, sl, _ := sparsePair(8, 6, 0.5, 5)
	x := tensor.New(3, 8)
	tensor.FillNormal(x, 1, tensor.NewRNG(6))
	for i, v := range sl.Wv.Value.Data() {
		sl.Wv.Value.Data()[i] = 2 * v
	}
	sl.B.Value.Zero()
	y, c := sl.Forward(nil, x, true)
	// Forward must see the doubled weights through the alias.
	ref := tensor.MatMulT(x, sl.W.Dense())
	if d := tensor.MaxAbsDiff(y, ref); d > 1e-4 {
		t.Fatalf("forward does not see optimizer writes: diff %g", d)
	}
	// The backward's input gradient must also see them.
	gy := tensor.New(3, 6)
	tensor.FillNormal(gy, 1, tensor.NewRNG(7))
	dx := sl.Backward(nil, c, gy)
	refDx := tensor.MatMul(gy, sl.W.Dense())
	if d := tensor.MaxAbsDiff(dx, refDx); d > 1e-4 {
		t.Fatalf("input gradient does not see optimizer writes: diff %g", d)
	}
}

// TestSparsify checks the layer surgery: pruned Linears become
// SparseLinears with the same bias and masked weights, other layers pass
// through, and the sparse model's eval forward matches the masked-dense
// original.
func TestSparsify(t *testing.T) {
	rng := tensor.NewRNG(11)
	m := BuildMLP("mlp", []int{16, 32, 8}, rng)
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, 0.75)
	// The reference masked-dense model: apply the masks in place.
	for _, e := range m.PruneLayers() {
		pr.Index(e.Name).Mask().Apply(e.Param.Value.Data())
	}
	sm := Sparsify(m, pr)
	if len(sm.Layers) != len(m.Layers) {
		t.Fatalf("layer count changed: %d vs %d", len(sm.Layers), len(m.Layers))
	}
	nSparse := 0
	for _, l := range sm.Layers {
		if _, ok := l.(*SparseLinear); ok {
			nSparse++
		}
	}
	if nSparse != 2 {
		t.Fatalf("sparsified %d layers, want 2", nSparse)
	}
	x := tensor.New(4, 16)
	tensor.FillNormal(x, 1, rng)
	yd, _ := m.Forward(x, false)
	ys, _ := sm.Forward(x, false)
	if d := tensor.MaxAbsDiff(yd, ys); d > 1e-4 {
		t.Fatalf("sparsified model diverges from masked-dense: %g", d)
	}
}
