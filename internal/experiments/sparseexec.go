package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// SparseExecRow is one measured point of the sparse-execution study.
type SparseExecRow struct {
	Dim      int
	Sparsity float64
	DenseMS  float64 // masked-dense fwd+bwd, ms per step
	SparseMS float64 // sparse-execution fwd+bwd, ms per step
	Speedup  float64 // DenseMS / SparseMS
}

// SparseExec is the in-process, measured counterpart of Figure 1 — run on
// this machine's CPU kernels instead of the calibrated Summit model. It
// times one FC layer's forward+backward at the paper's pruned sparsities,
// masked-dense (nn.Linear over weights with zeros) versus sparse execution
// (the same nn.Linear after nn.Sparsify, always the CSR kernels), and prints
// the pruned-FLOPs speedup. The expected shape: at 30% sparsity the
// 128-wide layer is faster masked-dense and the 256-wide one about level,
// and CSR wins increasingly past 90%, where only (1−p)·flops survive.
func SparseExec(w io.Writer) []SparseExecRow {
	const batch = 64
	const timedIters = 3
	fmt.Fprintln(w, "Sparse execution: FC forward+backward, masked-dense vs CSR kernels (measured on this host)")
	fmt.Fprintf(w, "%6s %10s %12s %12s %9s\n", "dim", "sparsity", "dense(ms)", "sparse(ms)", "speedup")
	var rows []SparseExecRow
	for _, dim := range []int{128, 256} {
		for _, sparsity := range []float64{0.3, 0.5, 0.9, 0.99} {
			rng := tensor.NewRNG(uint64(dim)*100 + uint64(sparsity*100))
			dense := nn.NewLinear("fc", dim, dim, rng)
			pr := prune.MagnitudePerLayer(
				[]prune.Layer{{Name: "fc.weight", Values: dense.W.Value.Data()}}, sparsity)
			ix := pr.Index("fc.weight")
			ix.Mask().Apply(dense.W.Value.Data())
			// The sparse twin: a copy of the masked layer, its weight
			// converted to CSR by Sparsify.
			sl := nn.NewLinear("fc", dim, dim, tensor.NewRNG(0))
			sl.W.Value.CopyFrom(dense.W.Value)
			sl.B.Value.CopyFrom(dense.B.Value)
			nn.Sparsify(&nn.Model{Layers: []nn.Layer{sl}}, pr)

			x := tensor.New(batch, dim)
			tensor.FillNormal(x, 1, rng)
			arena := tensor.NewArena()
			stepDense := func() {
				y, c := dense.Forward(arena, x, true)
				dense.Backward(arena, c, y)
				arena.Reset()
			}
			stepSparse := func() {
				y, c := sl.Forward(arena, x, true)
				sl.Backward(arena, c, y)
				arena.Reset()
			}
			r := SparseExecRow{Dim: dim, Sparsity: sparsity,
				DenseMS:  minStepMS(stepDense, timedIters),
				SparseMS: minStepMS(stepSparse, timedIters)}
			r.Speedup = r.DenseMS / r.SparseMS
			rows = append(rows, r)
			fmt.Fprintf(w, "%6d %10.2f %12.4f %12.4f %8.2fx\n",
				dim, sparsity, r.DenseMS, r.SparseMS, r.Speedup)
		}
	}
	fmt.Fprintln(w, "(speedup < 1: a layer this lightly pruned runs faster left as a masked Linear)")
	return rows
}

// minStepMS warms fn once, then reports the fastest of iters timed runs in
// milliseconds (minimum, not mean: scheduling noise only adds time).
func minStepMS(fn func(), iters int) float64 {
	fn()
	best := time.Duration(1<<62 - 1)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / 1e6
}
