package sparse

import (
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// TestCompressExpandZeroAlloc pins the perf contract on SAMO's two
// primitives: they run on every layer's gradient every microbatch, so they
// must not allocate in steady state (pooled parallel dispatch only).
func TestCompressExpandZeroAlloc(t *testing.T) {
	const n = 1 << 18
	mask := NewMask(n)
	rng := tensor.NewRNG(11)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			mask.Set(i)
		}
	}
	ix := NewIndex(mask)
	dense := make([]float32, n)
	comp := make([]float32, ix.NNZ())
	// Warm the job free list and the worker pool.
	ix.Compress(comp, dense)
	ix.Expand(dense, comp)

	if a := testing.AllocsPerRun(50, func() { ix.Compress(comp, dense) }); a != 0 {
		t.Fatalf("Compress allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { ix.Expand(dense, comp) }); a != 0 {
		t.Fatalf("Expand allocates %.1f per call, want 0", a)
	}
}

// TestSparseKernelsZeroAlloc pins the sparse training kernels — SpMMTInto
// against the pattern, the input gradient's TSpMMInto, and SDDMMInto (both
// kernels) — at zero steady-state allocations: they sit on the pruned FC
// layers' per-microbatch hot path, under the same contract as the dense GEMM
// family (pooled jobs, caller buffers).
func TestSparseKernelsZeroAlloc(t *testing.T) {
	w, _ := randMaskedCSR(128, 96, 0.1, 5)
	x := randDense(64, 96, 6)   // forward operand (batch, in)
	dy := randDense(64, 128, 7) // gradient operand (batch, out)
	xT := tensor.Transpose(x)   // (in, batch) for SDDMM
	dyT := tensor.Transpose(dy) // (out, batch)
	y := tensor.New(64, 128)    // SpMMT output
	dxT := tensor.New(96, 64)   // input gradient, feature-major
	grad := make([]float32, w.NNZ())

	// Warm the job free lists and the worker pool.
	w.SpMMTInto(y, x)
	w.TSpMMInto(dxT, dyT)
	w.SDDMMInto(grad, dyT, xT, true)

	if a := testing.AllocsPerRun(50, func() { w.SpMMTInto(y, x) }); a != 0 {
		t.Errorf("SpMMTInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { w.TSpMMInto(dxT, dyT) }); a != 0 {
		t.Errorf("TSpMMInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { w.SDDMMInto(grad, dyT, xT, true) }); a != 0 {
		t.Errorf("SDDMMInto allocates %.1f per call, want 0", a)
	}
	half, _ := randMaskedCSR(128, 96, 0.5, 8) // SDDMM from x: the windowed kernel
	halfGrad := make([]float32, half.NNZ())
	half.SDDMMInto(halfGrad, dyT, xT, true, x)
	if a := testing.AllocsPerRun(50, func() { half.SDDMMInto(halfGrad, dyT, xT, true, x) }); a != 0 {
		t.Errorf("windowed SDDMMInto allocates %.1f per call, want 0", a)
	}
}
