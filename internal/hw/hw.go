// Package hw models the hardware of the paper's testbed — ORNL Summit — and
// the GPU kernel timings the evaluation depends on. Nothing here executes on
// a GPU; these are calibrated analytical models. Two kinds of numbers
// matter:
//
//   - machine constants, taken directly from §V: 6 NVIDIA V100s per node,
//     50 GB/s NVLink within a node, 12.5 GB/s between nodes, 125 Tflop/s
//     peak half-precision per GPU, 16 GB of HBM each;
//   - kernel efficiency curves, calibrated so the dense/sparse ratios match
//     Figure 1: at 90% sparsity a dense cuBLAS FC layer is 6–22× faster
//     than Sputnik (gap growing with size) and cuSPARSE is far slower
//     still.
//
// The strong-scaling experiments (Figs. 5–8, Table II) depend only on these
// ratios and the compute:communication balance, not on absolute magnitudes.
package hw

import "math"

// Machine describes one cluster configuration.
type Machine struct {
	Name        string
	GPUsPerNode int
	// IntraBW and InterBW are per-GPU link bandwidths in bytes/second for
	// intra-node (NVLink) and inter-node (InfiniBand) transfers.
	IntraBW float64
	InterBW float64
	// IntraLatency and InterLatency are per-message latencies in seconds.
	IntraLatency float64
	InterLatency float64
	// PeakHalfFlops is the per-GPU fp16 peak in flop/s.
	PeakHalfFlops float64
	// MemBW is the per-GPU HBM bandwidth in bytes/second (bounds
	// memory-bound operations such as SAMO's gradient compression).
	MemBW float64
	// MemoryBytes is usable HBM per GPU.
	MemoryBytes int64
	// TrainEfficiency is the fraction of peak a well-tuned dense training
	// step achieves in pure compute (kernel efficiency × launch overheads).
	// Calibrated so Table II's small-scale utilization lands in the paper's
	// 43–53% band once communication is added.
	TrainEfficiency float64
}

// Summit returns the Summit profile from §V of the paper.
func Summit() Machine {
	return Machine{
		Name:            "Summit",
		GPUsPerNode:     6,
		IntraBW:         50e9,
		InterBW:         12.5e9,
		IntraLatency:    5e-6,
		InterLatency:    12e-6,
		PeakHalfFlops:   125e12,
		MemBW:           900e9,
		MemoryBytes:     16 << 30,
		TrainEfficiency: 0.60,
	}
}

// P2PTime returns the time to move bytes over one link.
func (m Machine) P2PTime(bytes int64, sameNode bool) float64 {
	if sameNode {
		return m.IntraLatency + float64(bytes)/m.IntraBW
	}
	return m.InterLatency + float64(bytes)/m.InterBW
}

// SpansNodes reports whether a group of g consecutive GPUs crosses a node
// boundary.
func (m Machine) SpansNodes(g int) bool { return g > m.GPUsPerNode }

// AllReduceTime returns the ring all-reduce time for a payload of bytes
// across g GPUs: each rank moves 2·(g−1)/g of the buffer over the
// bottleneck link, plus per-step latency.
func (m Machine) AllReduceTime(bytes int64, g int) float64 {
	if g <= 1 {
		return 0
	}
	bw, lat := m.IntraBW, m.IntraLatency
	if m.SpansNodes(g) {
		bw, lat = m.InterBW, m.InterLatency
	}
	steps := float64(2 * (g - 1))
	return steps*lat + 2*float64(g-1)/float64(g)*float64(bytes)/bw
}

// MemBoundTime returns the time for an operation that moves bytes through
// HBM (gathers/scatters, elementwise kernels).
func (m Machine) MemBoundTime(bytes float64) float64 {
	return bytes / m.MemBW
}

// --- Figure 1 kernel models -------------------------------------------------

// KernelKind selects the kernel model for the Figure 1 sweep.
type KernelKind int

// Kernel families compared in Figure 1.
const (
	KernelCuBLAS KernelKind = iota
	KernelSputnik
	KernelCuSPARSE
)

func (k KernelKind) String() string {
	switch k {
	case KernelCuBLAS:
		return "cuBLAS"
	case KernelSputnik:
		return "Sputnik"
	default:
		return "cuSPARSE"
	}
}

// kernelLaunch is the fixed overhead of one GPU kernel launch.
const kernelLaunch = 8e-6

// gemmEfficiency is the fraction of peak a mixed-precision GEMM reaches as a
// function of problem size: small problems are launch/occupancy bound, large
// ones approach ~65% of peak (typical for V100 cuBLAS HGEMM).
func gemmEfficiency(m, k, n int) float64 {
	s := math.Cbrt(float64(m) * float64(k) * float64(n)) // effective dim
	return 0.65 * s / (s + 700)
}

// DenseGEMMTime models a cuBLAS mixed-precision GEMM C(m,n) = A(m,k)·B(k,n).
func (mc Machine) DenseGEMMTime(m, k, n int) float64 {
	flops := 2 * float64(m) * float64(k) * float64(n)
	return kernelLaunch + flops/(mc.PeakHalfFlops*gemmEfficiency(m, k, n))
}

// sputnikSlowdown is the calibrated ratio of Sputnik spMM time to the dense
// GEMM computing the same (zero-filled) product at 90% sparsity, from
// Figure 1: ≈6× for 128² weights rising to ≈22× at 4096². Interpolation is
// linear in log-size; sparsity rescales the ratio by the non-zero fraction
// relative to the 0.9 calibration point (fewer non-zeros → proportionally
// less sparse work).
func sputnikSlowdown(dim int, sparsity float64) float64 {
	ld := math.Log2(float64(dim) / 128)
	if ld < 0 {
		ld = 0
	}
	frac := ld / 5 // 128 -> 4096 spans 5 doublings
	if frac > 1 {
		frac = 1
	}
	base := 6 + 16*frac
	return base * ((1 - sparsity) / 0.1)
}

// cuSPARSESlowdown is the calibrated cuSPARSE ratio: designed for >99%
// scientific sparsity, it is 1–2 orders of magnitude slower than dense at DL
// sparsities, with the gap widening with size (Figure 1 shows it worst
// everywhere).
func cuSPARSESlowdown(dim int, sparsity float64) float64 {
	return 5 * sputnikSlowdown(dim, sparsity)
}

// SparseFCTime models the time to compute a fully connected layer with a
// (dim × dim) weight matrix at the given sparsity on a batch of the given
// size, under the chosen kernel family. Dense kernels fill zeros and pay the
// full flop count; sparse kernels pay only non-zero flops but at far lower
// throughput — the trade Figure 1 quantifies.
func (mc Machine) SparseFCTime(kind KernelKind, dim, batch int, sparsity float64) float64 {
	dense := mc.DenseGEMMTime(batch, dim, dim)
	switch kind {
	case KernelCuBLAS:
		return dense
	case KernelSputnik:
		// The slowdown curves are calibrated against end-to-end layer time,
		// which is what Figure 1 plots (sparse kernels pay their metadata
		// traversal at every size, so the ratio holds even when the dense
		// kernel is launch-bound).
		return dense * sputnikSlowdown(dim, sparsity)
	default:
		return dense * cuSPARSESlowdown(dim, sparsity)
	}
}
