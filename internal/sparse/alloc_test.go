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
// against the pattern and its cached transpose, SDDMMInto (both kernels) and the
// cached-transpose Gather refresh — at zero steady-state allocations: since
// PR 5 they sit on the pruned FC layers' per-microbatch hot path, under the
// same contract as the dense GEMM family (pooled jobs, caller buffers).
func TestSparseKernelsZeroAlloc(t *testing.T) {
	w, _ := randMaskedCSR(128, 96, 0.1, 5)
	wt, perm := w.TransposePerm()
	x := randDense(64, 96, 6)   // forward operand (batch, in)
	dy := randDense(64, 128, 7) // gradient operand (batch, out)
	xT := tensor.Transpose(x)   // (in, batch) for SDDMM
	dyT := tensor.Transpose(dy) // (out, batch)
	y := tensor.New(64, 128)    // SpMMT output
	dx := tensor.New(64, 96)    // transposed SpMMT output
	grad := make([]float32, w.NNZ())

	// Warm the job free lists, their scratch and the worker pool.
	w.SpMMTInto(y, x)
	wt.SpMMTInto(dx, dy)
	wt.TSpMMTInto(dx, dyT)
	w.SDDMMInto(grad, dyT, xT, true)
	Gather(wt.Val, w.Val, perm)

	if a := testing.AllocsPerRun(50, func() { w.SpMMTInto(y, x) }); a != 0 {
		t.Errorf("SpMMTInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { wt.SpMMTInto(dx, dy) }); a != 0 {
		t.Errorf("transposed SpMMTInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { wt.TSpMMTInto(dx, dyT) }); a != 0 {
		t.Errorf("TSpMMTInto allocates %.1f per call, want 0", a)
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
	if a := testing.AllocsPerRun(50, func() { Gather(wt.Val, w.Val, perm) }); a != 0 {
		t.Errorf("Gather allocates %.1f per call, want 0", a)
	}
}

// TestTransposePermIntoZeroAlloc pins the prune-event refresh of a cached
// transpose (SparseLinear.ShrinkPattern runs it at every prune event) at
// zero allocations: it rebuilds inside the arrays it is handed, its fill
// cursor included.
func TestTransposePermIntoZeroAlloc(t *testing.T) {
	w, _ := randMaskedCSR(128, 96, 0.1, 9)
	wt, perm := w.TransposePerm()
	if a := testing.AllocsPerRun(50, func() { perm = w.TransposePermInto(wt, perm) }); a != 0 {
		t.Errorf("TransposePermInto allocates %.1f per call, want 0", a)
	}
}
