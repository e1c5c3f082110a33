package tensor

import (
	"fmt"
	"testing"

	"github.com/sparse-dl/samo/internal/autotune"
	"github.com/sparse-dl/samo/internal/parallel"
)

// warmAutotune drives a dispatcher until the autotuner has frozen a
// blocking for the (variant, shape) bucket, so the timed loop measures the
// steady-state kernel rather than the probe phase.
func warmAutotune(v gemmVariant, m, k, n int, call func()) {
	e := tuneFor(v, m, k, n)
	for i := 0; i < 4*len(tuneCandsFor(v))*autotune.ProbeRuns && e.Chosen() < 0; i++ {
		call()
	}
}

// BenchmarkGEMM times the dense kernel at the paper's Figure 1 FC shapes
// (batch 576, square weights): "seed" is the saxpy kernel the repository
// started with and "shared" the autotuned shared-pack pipeline that
// dispatch now uses. The seed/shared ratio is the kernel-path speedup
// recorded in BENCH_kernels.json (scripts/bench.sh gates on it).
func BenchmarkGEMM(b *testing.B) {
	const batch = 576
	for _, dim := range []int{128, 256, 512, 1024} {
		a, w, c := New(batch, dim), New(dim, dim), New(batch, dim)
		rng := NewRNG(7)
		fillSeq(a, rng)
		fillSeq(w, rng)
		flops := 2 * float64(batch) * float64(dim) * float64(dim)
		b.Run(fmt.Sprintf("seed/%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := getGemmJob()
				j.c, j.a, j.b = c.data, a.data, w.data
				j.m, j.k, j.n = batch, dim, dim
				j.accumulate = false
				parallel.Run(batch, gemmGrain, j, gemmSaxpyChunk)
				putGemmJob(j)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
		b.Run(fmt.Sprintf("shared/%d", dim), func(b *testing.B) {
			warmAutotune(gemmNN, batch, dim, dim, func() {
				gemm(c.data, a.data, w.data, batch, dim, dim, false)
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemm(c.data, a.data, w.data, batch, dim, dim, false)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkMatMulT times the input-gradient product dX = G·Wᵀ at the
// Figure-1 FC backward shapes (batch 576, square weights): "tiled" is the
// PR-1 4×4 register-tile kernel the dispatcher used before the shared-pack
// port, "shared" the autotuned v2/v3 pipeline it uses now. The
// tiled/shared ratio is the MatMulT speedup matrix in BENCH_kernels.json,
// gated by MIN_GEMM_SPEEDUP in scripts/bench.sh.
func BenchmarkMatMulT(b *testing.B) {
	const batch = 576
	for _, dim := range []int{128, 256, 512, 1024} {
		g, w, c := New(batch, dim), New(dim, dim), New(batch, dim)
		rng := NewRNG(8)
		fillSeq(g, rng)
		fillSeq(w, rng)
		flops := 2 * float64(batch) * float64(dim) * float64(dim)
		b.Run(fmt.Sprintf("tiled/%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := getGemmJob()
				j.c, j.a, j.b = c.data, g.data, w.data
				j.m, j.k, j.n = batch, dim, dim
				j.accumulate = false
				parallel.Run(batch, gemmGrain, j, gemmTChunk)
				putGemmJob(j)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
		b.Run(fmt.Sprintf("shared/%d", dim), func(b *testing.B) {
			warmAutotune(gemmNT, batch, dim, dim, func() {
				MatMulTInto(c, g, w, false)
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTInto(c, g, w, false)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkTMatMul times the weight-gradient product dW = Xᵀ·G at the same
// Figure-1 backward shapes; "tiled" vs "shared" as in BenchmarkMatMulT.
func BenchmarkTMatMul(b *testing.B) {
	const batch = 576
	for _, dim := range []int{128, 256, 512, 1024} {
		x, g, c := New(batch, dim), New(batch, dim), New(dim, dim)
		rng := NewRNG(9)
		fillSeq(x, rng)
		fillSeq(g, rng)
		flops := 2 * float64(batch) * float64(dim) * float64(dim)
		b.Run(fmt.Sprintf("tiled/%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := getGemmJob()
				j.c, j.a, j.b = c.data, x.data, g.data
				j.m, j.k, j.n = dim, batch, dim
				j.accumulate = false
				parallel.Run(dim, gemmGrain, j, tGemmChunk)
				putGemmJob(j)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
		b.Run(fmt.Sprintf("shared/%d", dim), func(b *testing.B) {
			warmAutotune(gemmTN, dim, batch, dim, func() {
				TMatMulInto(c, x, g, false)
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TMatMulInto(c, x, g, false)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}
