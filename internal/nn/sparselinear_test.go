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

// TestSparseLinearMatchesMaskedDense pins both execution paths of the
// layer — the CSR kernels and the masked-dense GEMM fallback — against the
// masked-dense nn.Linear reference: same outputs, same input gradients,
// weight gradients equal to the dense gradient restricted to the pattern
// (and NO entries beyond it), same bias gradients. Run through an arena,
// as the trainer drives it.
func TestSparseLinearMatchesMaskedDense(t *testing.T) {
	for _, exec := range []ExecMode{ExecSparse, ExecDense} {
		t.Run(fmt.Sprintf("exec=%d", exec), func(t *testing.T) {
			dense, sl, ix := sparsePair(12, 9, 0.8, 1)
			sl.Exec = exec
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
// optimizer's down-cast does) must be visible to the forward product and —
// after the backward's refresh — to the cached transpose.
func TestSparseLinearOptimizerAliasing(t *testing.T) {
	_, sl, _ := sparsePair(8, 6, 0.5, 5)
	sl.Exec = ExecSparse
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
	// The backward's cached transpose must also see them.
	gy := tensor.New(3, 6)
	tensor.FillNormal(gy, 1, tensor.NewRNG(7))
	dx := sl.Backward(nil, c, gy)
	refDx := tensor.MatMul(gy, sl.W.Dense())
	if d := tensor.MaxAbsDiff(dx, refDx); d > 1e-4 {
		t.Fatalf("cached transpose stale after weight update: diff %g", d)
	}
}

// TestSparseLinearDenseCopyNeverStale pins the denseFresh protocol against
// path flips: a fresh flag set by one microbatch's dense forward must not
// let a LATER microbatch's dense backward skip re-materialization after the
// weights changed — the flag may only be consumed by the same microbatch
// that set it. (The sequence below flips the Exec pin between a
// microbatch's products.)
func TestSparseLinearDenseCopyNeverStale(t *testing.T) {
	_, sl, _ := sparsePair(10, 8, 0.5, 21)
	x := tensor.New(4, 10)
	tensor.FillNormal(x, 1, tensor.NewRNG(22))
	gy := tensor.New(4, 8)
	tensor.FillNormal(gy, 1, tensor.NewRNG(23))

	// Microbatch 1: dense forward sets the fresh flag, sparse backward
	// leaves it unconsumed.
	sl.Exec = ExecDense
	_, c := sl.Forward(nil, x, true)
	sl.Exec = ExecSparse
	sl.Backward(nil, c, gy)
	// Optimizer step: weights change through the alias.
	for i, v := range sl.Wv.Value.Data() {
		sl.Wv.Value.Data()[i] = v + 1
	}
	// Microbatch 2: sparse forward, dense backward — must re-materialize.
	_, c = sl.Forward(nil, x, true)
	sl.Exec = ExecDense
	dx := sl.Backward(nil, c, gy)
	want := tensor.MatMul(gy, sl.W.Dense())
	if d := tensor.MaxAbsDiff(dx, want); d > 1e-4 {
		t.Fatalf("dense backward used a stale masked-dense copy: diff %g", d)
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
		if sl, ok := l.(*SparseLinear); ok {
			sl.Exec = ExecSparse
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

// TestXoverIsPure pins the execution path of an auto-mode layer as a pure
// function of its pattern: at every sparsity either side of the quarter-
// density line and every batch height, a FRESH layer's forward output, dx
// and Wv.Grad equal — bit for bit, from the first call — those of the
// Exec-pinned path the rule names (CSR iff 4·nnz < full; exactly 75% runs
// dense), XoverDecide never asks for a probe, and the masked-dense copy is
// gone after any sparse-path product.
func TestXoverIsPure(t *testing.T) {
	if prev, err := sparse.SetXover("auto"); err != nil {
		t.Fatal(err)
	} else {
		defer sparse.SetXover(prev)
	}
	const in, out, full = 32, 24, 32 * 24
	for _, sparsity := range []float64{0.5, 0.75, 0.76, 0.9} {
		for _, m := range []int{1, 8, 48} {
			t.Run(fmt.Sprintf("sparsity=%g/m=%d", sparsity, m), func(t *testing.T) {
				_, auto, _ := sparsePair(in, out, sparsity, 13)
				_, pin, _ := sparsePair(in, out, sparsity, 13)
				nnz := auto.W.NNZ()
				if sparsity == 0.75 && 4*nnz != full {
					t.Fatalf("75%% fixture stores %d of %d: not on the line", nnz, full)
				}
				want, wantExec := sparse.XoverDense, ExecDense
				if 4*nnz < full {
					want, wantExec = sparse.XoverSparse, ExecSparse
				}
				if wantSparse := sparsity > 0.75; wantSparse != (want == sparse.XoverSparse) {
					t.Fatalf("nnz %d of %d resolves %v", nnz, full, want)
				}
				pin.Exec = wantExec
				x := tensor.New(m, in)
				tensor.FillNormal(x, 1, tensor.NewRNG(14))
				gy := tensor.New(m, out)
				tensor.FillNormal(gy, 1, tensor.NewRNG(15))
				same := func(what string, a, p *tensor.Tensor) {
					t.Helper()
					if i, ok := bitwiseDiff(a.Data(), p.Data()); !ok {
						t.Fatalf("%s: auto differs from the %v pin at %d", what, want, i)
					}
				}
				for call := 0; call < 3; call++ {
					for _, op := range []sparse.XoverOp{sparse.XoverOpForward, sparse.XoverOpBackward} {
						e, c, probe := sparse.XoverDecide(op, m, in, out, nnz, full)
						if probe || c != want || e == nil {
							t.Fatalf("call %d: XoverDecide = (%v, %v, probe %v), want a %v entry and no probe", call, e, c, probe, want)
						}
						if got, ok := e.Decided(); !ok || got != want {
							t.Fatalf("call %d: entry reports (%v, %v), want %v", call, got, ok, want)
						}
					}
					ya, ca := auto.Forward(nil, x, true)
					if (auto.denseW == nil) != (want == sparse.XoverSparse) {
						t.Fatalf("call %d: after a %v forward, masked-dense copy present = %v", call, want, auto.denseW != nil)
					}
					dxa := auto.Backward(nil, ca, gy)
					yp, cp := pin.Forward(nil, x, true)
					dxp := pin.Backward(nil, cp, gy)
					same("forward", ya, yp)
					same("dx", dxa, dxp)
					same("Wv.Grad", auto.Wv.Grad, pin.Wv.Grad)
				}
				// A path flip (here by pin) drops the copy at the first
				// sparse-path product, forward or backward.
				auto.Exec = ExecDense
				_, c := auto.Forward(nil, x, true)
				auto.Exec = ExecSparse
				auto.Backward(nil, c, gy)
				if auto.denseW != nil {
					t.Fatal("masked-dense copy survived a sparse-path backward")
				}
			})
		}
	}
}
