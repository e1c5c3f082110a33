package sparse

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// bitwiseEqualSlice reports the first index at which two float32 slices
// differ in BITS (NaN-safe, -0 != +0), or (-1, true) when identical.
func bitwiseEqualSlice(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestSparseKernelsBitwiseDeterminism pins the whole sparse kernel family —
// SDDMMInto, the transposed SpMMTInto on a pattern and the SpMM walking it
// transposed (TSpMMInto, the call nn.Linear's CSR forward makes) — to one
// reference output BITWISE at every worker count the training stack uses, on
// the paper's pruned FC shapes (batch 576, square weights at 90% and 99%
// sparsity plus a rectangular layer, and at 50% and 70%, where SDDMM from the
// batch-major operand runs the windowed kernel), under both kernels. Batch
// 576 runs the 48-lane input-gradient kernel, and from two workers up its
// chunks search every row for their feature range. Every output element has
// a single owning worker and a fixed accumulation order (the CSR's p order;
// ascending rows for the SpMM, whose reference is the SpMMᵀ of a stored
// transpose, the chain it replaced), so resizing the pool can never perturb
// sparse training — the same contract the GEMM family carries.
func TestSparseKernelsBitwiseDeterminism(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(0))
	const batch = 576
	for _, s := range []struct {
		out, in  int
		sparsity float64
	}{
		{128, 128, 0.9},
		{256, 256, 0.9},
		{128, 256, 0.9},
		{256, 256, 0.99},
		{256, 256, 0.5},
		{128, 256, 0.7},
	} {
		t.Run(fmt.Sprintf("%dx%d/s%.2f", s.out, s.in, s.sparsity), func(t *testing.T) {
			seed := uint64(s.out*1000 + s.in)
			w, _ := randMaskedCSR(s.out, s.in, 1-s.sparsity, seed)
			wt := transposeOf(w)
			x := randDense(batch, s.in, seed+1)
			dy := randDense(batch, s.out, seed+2)
			xT := tensor.Transpose(x)
			dyT := tensor.Transpose(dy)

			// One reference, from the Go chains at one worker; the vector
			// kernels must land on it too, at every worker count.
			var refFwd, refDx *tensor.Tensor
			var refSDDMM []float32
			bothSparseKernels(t, func() {
				if refFwd == nil {
					tensor.SetWorkers(1)
					refFwd = tensor.New(batch, s.out)
					w.SpMMTInto(refFwd, x)
					refDx = tensor.New(batch, s.in)
					wt.SpMMTInto(refDx, dy)
					refSDDMM = make([]float32, w.NNZ())
					w.SDDMMInto(refSDDMM, dyT, xT, false)
				}
				outFwd := tensor.New(batch, s.out)
				outDxT := tensor.New(s.in, batch)
				outSDDMM := make([]float32, w.NNZ())
				for _, workers := range []int{1, 2, 3, 4, 8, 16} {
					tensor.SetWorkers(workers)
					w.SpMMTInto(outFwd, x)
					if i, ok := bitwiseEqualSlice(outFwd.Data(), refFwd.Data()); !ok {
						t.Fatalf("workers=%d: SpMMT (forward) differs from reference at %d", workers, i)
					}
					outDxT.Fill(42)
					w.TSpMMInto(outDxT, dyT)
					if i, ok := bitwiseEqualSlice(tensor.Transpose(outDxT).Data(), refDx.Data()); !ok {
						t.Fatalf("workers=%d: TSpMMInto (input gradient) differs from the stored transpose's SpMMᵀ at %d", workers, i)
					}
					for _, bT := range [][]*tensor.Tensor{nil, {x}} {
						for i := range outSDDMM {
							outSDDMM[i] = 42
						}
						w.SDDMMInto(outSDDMM, dyT, xT, false, bT...)
						if i, ok := bitwiseEqualSlice(outSDDMM, refSDDMM); !ok {
							t.Fatalf("workers=%d: SDDMM (batch-major operand %v) differs from reference at %d", workers, bT != nil, i)
						}
					}
				}
			})
		})
	}
}
