package sparse

import (
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// TestCompressExpandZeroAlloc pins the perf contract on SAMO's two
// primitives: they run on every layer's gradient every microbatch, so they
// must not allocate in steady state (pooled parallel dispatch only).
func TestCompressExpandZeroAlloc(t *testing.T) {
	// Hermetic allocation counting: AllocsPerRun tallies process-wide
	// mallocs, so a background tune-table save (triggered whenever a GEMM
	// bucket happens to freeze nearby) would show up as phantom allocs.
	// "off" makes the freeze path inert; persistence itself is pinned by
	// TestTunePersistenceRoundTripAllocFree.
	t.Setenv("SAMO_GEMM_TUNE", "off")

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
// against the pattern and its cached transpose, SDDMMInto and the
// cached-transpose Gather refresh — at zero steady-state allocations: since
// PR 5 they sit on the pruned FC layers' per-microbatch hot path, under the
// same contract as the dense GEMM family (pooled jobs, caller buffers).
func TestSparseKernelsZeroAlloc(t *testing.T) {
	t.Setenv("SAMO_GEMM_TUNE", "off") // hermetic: see TestCompressExpandZeroAlloc

	w, _ := randMaskedCSR(128, 96, 0.1, 5)
	wt, perm := w.TransposePerm()
	x := randDense(64, 96, 6)   // forward operand (batch, in)
	dy := randDense(64, 128, 7) // gradient operand (batch, out)
	xT := tensor.Transpose(x)   // (in, batch) for SDDMM
	dyT := tensor.Transpose(dy) // (out, batch)
	y := tensor.New(64, 128)    // SpMMT output
	dx := tensor.New(64, 96)    // transposed SpMMT output
	grad := make([]float32, w.NNZ())

	// Warm the job free lists and the worker pool.
	w.SpMMTInto(y, x)
	wt.SpMMTInto(dx, dy)
	w.SDDMMInto(grad, dyT, xT, true)
	Gather(wt.Val, w.Val, perm)

	if a := testing.AllocsPerRun(50, func() { w.SpMMTInto(y, x) }); a != 0 {
		t.Errorf("SpMMTInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { wt.SpMMTInto(dx, dy) }); a != 0 {
		t.Errorf("transposed SpMMTInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { w.SDDMMInto(grad, dyT, xT, true) }); a != 0 {
		t.Errorf("SDDMMInto allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { Gather(wt.Val, w.Val, perm) }); a != 0 {
		t.Errorf("Gather allocates %.1f per call, want 0", a)
	}
}
