package sparse

import (
	"fmt"
	"testing"

	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// BenchmarkSpMM is the sparse-vs-dense kernel matrix: the FC forward
// product y = x·Wᵀ at the paper's batch (576) computed by the dense GEMM
// over the masked-dense weight versus the transposed-CSR SpMM (SpMMTInto,
// its operand transpose included), across the evaluation's sparsity range.
// With both kernels vectorised the two are level at 50% and CSR wins from
// 75% (2 vCPUs: 0.9–1.0× at 50%, 1.4× at 75%, 2.0–2.5× at 90%, 2.0–2.9× at
// 95%, 2.6–3.2× at 99%); scripts/bench.sh gates the ≥ 90% points at
// MIN_SPMM_SPEEDUP and records the full matrix in BENCH_kernels.json. This
// is one product at the largest batch; nn.Sparsify's doc grids a whole
// layer step below half sparsity at batch 48 and 576.
func BenchmarkSpMM(b *testing.B) {
	const batch = 576
	for _, dim := range []int{256, 512} {
		for _, sparsity := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
			w, denseW := randMaskedCSR(dim, dim, 1-sparsity, uint64(dim)+uint64(sparsity*100))
			x := randDense(batch, dim, uint64(dim)+1)
			y := tensor.New(batch, dim)
			b.Run(fmt.Sprintf("dense/%dx%.2f", dim, sparsity), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tensor.MatMulTInto(y, x, denseW, false)
				}
			})
			b.Run(fmt.Sprintf("sparse/%dx%.2f", dim, sparsity), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.SpMMTInto(y, x)
				}
			})
		}
	}
}

// BenchmarkSDDMM times the weight-gradient kernel the sparse backward pass
// always takes (it computes only the surviving entries) against the full
// dense product it replaces (2 vCPUs: 2.0× at 90%). The dense loop is the
// bare GEMM — the masked-dense training path additionally owes a compress
// over the result, so the recorded ratio understates the sparse kernel's
// end-to-end edge. At 50% density it also times the two SDDMM kernels
// against each other: gathered (from the feature-major xᵀ) and windowed
// (handed the batch-major x as well), which give the same bits.
func BenchmarkSDDMM(b *testing.B) {
	const batch = 576
	for _, dim := range []int{256, 512} {
		const sparsity = 0.9
		w, _ := randMaskedCSR(dim, dim, 1-sparsity, uint64(dim)+7)
		dyT := randDense(dim, batch, uint64(dim)+2)
		xT := randDense(dim, batch, uint64(dim)+3)
		grad := make([]float32, w.NNZ())
		dW := tensor.New(dim, dim)
		b.Run(fmt.Sprintf("dense/%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulTInto(dW, dyT, xT, false)
			}
		})
		b.Run(fmt.Sprintf("sparse/%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.SDDMMInto(grad, dyT, xT, false)
			}
		})
		half, _ := randMaskedCSR(dim, dim, 0.5, uint64(dim)+8)
		x := tensor.Transpose(xT)
		halfGrad := make([]float32, half.NNZ())
		b.Run(fmt.Sprintf("gather/%dx0.50", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				half.SDDMMInto(halfGrad, dyT, xT, false)
			}
		})
		b.Run(fmt.Sprintf("window/%dx0.50", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				half.SDDMMInto(halfGrad, dyT, xT, false, x)
			}
		})
	}
}

// BenchmarkInputGrad times a sparse FC layer's input gradient dx = dy·W
// from the feature-major dyᵀ at the sparse benchmark workloads' shape
// (640×640, batch 48) and at the paper's batch, at one worker, two ways:
// "stored" refreshes a stored transpose's values through a permutation
// gather and runs SpMMᵀ over it, writing dx directly; "inplace" walks W's
// rows (TSpMMInto) into dxᵀ and transposes that
// into dx. The two give the same bits; the table above tspmmRun is their
// batch-48 rows.
func BenchmarkInputGrad(b *testing.B) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, batch := range []int{48, 576} {
		for _, sparsity := range []float64{0.5, 0.75, 0.9, 0.95} {
			w, _ := randMaskedCSR(640, 640, 1-sparsity, uint64(batch)+uint64(sparsity*100))
			wt := transposeOf(w)
			pos := make([]int32, w.Rows*w.Cols) // linear id → position in w
			for j := 0; j < w.Rows; j++ {
				for p := w.RowPtr[j]; p < w.RowPtr[j+1]; p++ {
					pos[j*w.Cols+int(w.ColIdx[p])] = p
				}
			}
			g := &permGather{dst: wt.Val, src: w.Val, perm: make([]int32, w.NNZ())}
			for c := 0; c < wt.Rows; c++ {
				for q := wt.RowPtr[c]; q < wt.RowPtr[c+1]; q++ {
					g.perm[q] = pos[int(wt.ColIdx[q])*w.Cols+c]
				}
			}
			dyT := randDense(640, batch, 5)
			dx, dxT := tensor.New(batch, 640), tensor.New(640, batch)
			b.Run(fmt.Sprintf("stored/b%dx%.2f", batch, sparsity), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					parallel.Run(len(g.perm), ixGrain, g, permGatherChunk)
					wt.TSpMMTInto(dx, dyT)
				}
			})
			b.Run(fmt.Sprintf("inplace/b%dx%.2f", batch, sparsity), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.TSpMMInto(dxT, dyT)
					tensor.TransposeInto(dx, dxT)
				}
			})
		}
	}
}

// permGather is the stored transpose's value refresh, dst[q] = src[perm[q]],
// on the worker pool.
type permGather struct {
	dst, src []float32
	perm     []int32
}

func permGatherChunk(ctx any, lo, hi int) {
	g := ctx.(*permGather)
	for q := lo; q < hi; q++ {
		g.dst[q] = g.src[g.perm[q]]
	}
}
