package hw

import (
	"testing"
	"testing/quick"
)

func TestSummitConstantsFromPaper(t *testing.T) {
	m := Summit()
	if m.GPUsPerNode != 6 {
		t.Error("Summit has 6 GPUs per node")
	}
	if m.IntraBW != 50e9 || m.InterBW != 12.5e9 {
		t.Error("Summit bandwidths: 50 GB/s intra, 12.5 GB/s inter")
	}
	if m.PeakHalfFlops != 125e12 {
		t.Error("Summit V100 peak: 125 Tflop/s fp16")
	}
	if m.MemoryBytes != 16<<30 {
		t.Error("Summit V100 memory: 16 GB")
	}
}

func TestP2PTimeOrdering(t *testing.T) {
	m := Summit()
	const mb = 1 << 20
	if m.P2PTime(mb, true) >= m.P2PTime(mb, false) {
		t.Error("intra-node transfer must be faster than inter-node")
	}
	if m.P2PTime(2*mb, true) <= m.P2PTime(mb, true) {
		t.Error("more bytes must take longer")
	}
}

func TestAllReduceTimeProperties(t *testing.T) {
	m := Summit()
	if m.AllReduceTime(1<<20, 1) != 0 {
		t.Error("single-rank all-reduce is free")
	}
	// Within a node it uses NVLink; across nodes IB — a 12-GPU reduce of
	// the same payload must be slower than a 4-GPU one.
	if m.AllReduceTime(1<<24, 4) >= m.AllReduceTime(1<<24, 12) {
		t.Error("node-spanning all-reduce must be slower")
	}
	// Bandwidth term: asymptotically ~2·bytes/bw regardless of g.
	big := int64(1 << 30)
	t64 := m.AllReduceTime(big, 64)
	t512 := m.AllReduceTime(big, 512)
	if t512 < t64 || t512 > 1.2*t64+0.1 {
		t.Errorf("ring all-reduce should be nearly g-independent in bandwidth: %g vs %g", t64, t512)
	}
}

func TestGEMMEfficiencyMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		d1 := 64 + int(a)*16
		d2 := 64 + int(b)*16
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return gemmEfficiency(d1, d1, d1) <= gemmEfficiency(d2, d2, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if e := gemmEfficiency(4096, 4096, 4096); e < 0.4 || e > 0.65 {
		t.Errorf("large-GEMM efficiency %g outside plausible cuBLAS band", e)
	}
}

func TestFigure1RatiosAt90Sparsity(t *testing.T) {
	// The calibration targets from the paper: dense is 6–22× faster than
	// Sputnik at 90% sparsity across 128²–4096² weights, and cuSPARSE is
	// slower than Sputnik everywhere.
	m := Summit()
	const batch = 576
	for _, dim := range []int{128, 256, 512, 1024, 2048, 4096} {
		dense := m.SparseFCTime(KernelCuBLAS, dim, batch, 0.9)
		sput := m.SparseFCTime(KernelSputnik, dim, batch, 0.9)
		cus := m.SparseFCTime(KernelCuSPARSE, dim, batch, 0.9)
		ratio := sput / dense
		if ratio < 4 || ratio > 25 {
			t.Errorf("dim %d: Sputnik/dense ratio %.1f outside the paper's 6–22× band", dim, ratio)
		}
		if cus <= sput {
			t.Errorf("dim %d: cuSPARSE must be slower than Sputnik", dim)
		}
	}
	// The gap grows with size (22× at the top end).
	small := m.SparseFCTime(KernelSputnik, 128, batch, 0.9) / m.SparseFCTime(KernelCuBLAS, 128, batch, 0.9)
	large := m.SparseFCTime(KernelSputnik, 4096, batch, 0.9) / m.SparseFCTime(KernelCuBLAS, 4096, batch, 0.9)
	if large <= small {
		t.Errorf("Sputnik gap should grow with size: %.1f -> %.1f", small, large)
	}
	if large < 18 || large > 25 {
		t.Errorf("gap at 4096² = %.1f, want ≈22", large)
	}
}

func TestSparsityScalesSparseKernelTime(t *testing.T) {
	// Higher sparsity -> fewer non-zeros -> faster sparse kernel; dense
	// time unchanged (it computes the zeros anyway).
	m := Summit()
	s80 := m.SparseFCTime(KernelSputnik, 1024, 576, 0.8)
	s95 := m.SparseFCTime(KernelSputnik, 1024, 576, 0.95)
	if s95 >= s80 {
		t.Error("sparser matrix must run faster under Sputnik")
	}
	d80 := m.SparseFCTime(KernelCuBLAS, 1024, 576, 0.8)
	d95 := m.SparseFCTime(KernelCuBLAS, 1024, 576, 0.95)
	if d80 != d95 {
		t.Error("dense time must not depend on sparsity")
	}
}

func TestComputeAndMemBoundTimes(t *testing.T) {
	m := Summit()
	if m.MemBoundTime(900e9) != 1.0 {
		t.Error("MemBoundTime miscalibrated")
	}
	if m.SpansNodes(6) || !m.SpansNodes(7) {
		t.Error("node-boundary detection wrong")
	}
}
