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
// SDDMMInto and the transposed SpMMTInto on both a primary pattern and its
// cached Transpose() — to one reference output BITWISE at every worker
// count the training stack uses, on the paper's pruned FC shapes (batch 576,
// square weights at 90% and 99% sparsity plus a rectangular layer). Every
// output element has a single owning worker and a fixed accumulation order
// (the CSR's p order), so resizing the pool can never perturb sparse
// training — the same contract the GEMM family and Col2Im carry.
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
	} {
		t.Run(fmt.Sprintf("%dx%d/s%.2f", s.out, s.in, s.sparsity), func(t *testing.T) {
			seed := uint64(s.out*1000 + s.in)
			w, _ := randMaskedCSR(s.out, s.in, 1-s.sparsity, seed)
			wt := w.Transpose()
			x := randDense(batch, s.in, seed+1)
			dy := randDense(batch, s.out, seed+2)
			xT := tensor.Transpose(x)
			dyT := tensor.Transpose(dy)

			tensor.SetWorkers(1)
			refFwd := tensor.New(batch, s.out)
			w.SpMMTInto(refFwd, x)
			refDx := tensor.New(batch, s.in)
			wt.SpMMTInto(refDx, dy)
			refSDDMM := make([]float32, w.NNZ())
			w.SDDMMInto(refSDDMM, dyT, xT, false)

			outFwd := tensor.New(batch, s.out)
			outDx := tensor.New(batch, s.in)
			outSDDMM := make([]float32, w.NNZ())
			for _, workers := range []int{1, 2, 3, 4, 8, 16} {
				tensor.SetWorkers(workers)
				w.SpMMTInto(outFwd, x)
				if i, ok := bitwiseEqualSlice(outFwd.Data(), refFwd.Data()); !ok {
					t.Fatalf("workers=%d: SpMMT (forward) differs from reference at %d", workers, i)
				}
				wt.SpMMTInto(outDx, dy)
				if i, ok := bitwiseEqualSlice(outDx.Data(), refDx.Data()); !ok {
					t.Fatalf("workers=%d: SpMMT (transpose/input-grad) differs at %d", workers, i)
				}
				for i := range outSDDMM {
					outSDDMM[i] = 42
				}
				w.SDDMMInto(outSDDMM, dyT, xT, false)
				if i, ok := bitwiseEqualSlice(outSDDMM, refSDDMM); !ok {
					t.Fatalf("workers=%d: SDDMM differs from reference at %d", workers, i)
				}
			}
		})
	}
}
