package tensor

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/sparse-dl/samo/internal/parallel"
)

// BenchmarkGEMM times the dense kernel at the paper's Figure 1 FC shapes
// (batch 576, square weights): "seed" is the saxpy kernel the repository
// started with and "shared" the shared-pack pipeline that
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
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemm(c.data, a.data, w.data, batch, dim, dim, false)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkMatMul256(b *testing.B) {
	x := randTensor([]int{256, 256}, 1)
	y := randTensor([]int{256, 256}, 2)
	c := New(256, 256)
	b.SetBytes(2 * 256 * 256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, x, y, false)
	}
}

// BenchmarkGEMMSmallM times the forward product's two blockings against
// each other at the heights a batch gives it — B read in place (gemmDirect)
// and B packed in strips (gemmStrip) — over the benchmark workloads' weight
// shapes k×n: the served GPT (64×256, 256×64), the trained GPT (128×512,
// 512×128), the sparse MLPs' dense-masked layer (640×640) and the TCP MLP
// (768×768), at one worker and at GOMAXPROCS. gemmRule's m line is read off
// its inplace/packed ratios.
func BenchmarkGEMMSmallM(b *testing.B) {
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	defer SetWorkers(SetWorkers(0))
	for _, s := range [][2]int{{64, 256}, {256, 64}, {128, 512}, {512, 128}, {640, 640}, {768, 768}} {
		k, n := s[0], s[1]
		w := New(k, n)
		fillSeq(w, NewRNG(10))
		for _, m := range []int{1, 2, 8, 16, 32, 128, 256} {
			a, c := New(m, k), New(m, n)
			fillSeq(a, NewRNG(11))
			flops := 2 * float64(m) * float64(k) * float64(n)
			for _, wk := range workers {
				for _, bl := range []struct {
					name string
					bl   gemmBlocking
				}{{"inplace", gemmDirect}, {"packed", gemmStrip}} {
					b.Run(fmt.Sprintf("%dx%d/m%d/w%d/%s", k, n, m, wk, bl.name), func(b *testing.B) {
						SetWorkers(wk)
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							gemmV2(gemmNN, c.data, a.data, w.data, m, k, n, false, bl.bl)
						}
						b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
					})
				}
			}
		}
	}
}

// BenchmarkMatMulT times the input-gradient product dX = G·Wᵀ at the
// Figure-1 FC backward shapes (batch 576, square weights): "tiled" is the
// PR-1 4×4 register-tile kernel the dispatcher used before the shared-pack
// port, "shared" the v2/v3 pipeline it uses now. The
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
			b.ReportAllocs()
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
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TMatMulInto(c, x, g, false)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkBackwardSmallM times a data-parallel rank's dense backward at 4
// rows — the per-rank microbatch of the TCP MLP benchmark workload (batch 8
// over two data groups) — through its three layers, in×out 256×768, 768×768
// and 768×32: the weight gradient dW += xᵀ·dy (TMatMulInto at k = 4, tGemm's
// small path) and the input gradient dx = dy·Wᵀ (MatMulTInto at m = 4, the
// NT pipeline, which packs W on every call). At one worker, the engine's
// per-rank setting, and at GOMAXPROCS.
func BenchmarkBackwardSmallM(b *testing.B) {
	const m = 4
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	defer SetWorkers(SetWorkers(0))
	for _, s := range [][2]int{{256, 768}, {768, 768}, {768, 32}} {
		in, out := s[0], s[1]
		x, dy, w := New(m, in), New(m, out), New(in, out)
		dW, dx := New(in, out), New(m, in)
		rng := NewRNG(12)
		fillSeq(x, rng)
		fillSeq(dy, rng)
		fillSeq(w, rng)
		flops := 2 * float64(m) * float64(in) * float64(out)
		for _, wk := range workers {
			for _, p := range []struct {
				name string
				run  func()
			}{
				{"dW", func() { TMatMulInto(dW, x, dy, true) }},
				{"dx", func() { MatMulTInto(dx, dy, w, false) }},
			} {
				b.Run(fmt.Sprintf("%dx%d/%s/w%d", in, out, p.name, wk), func(b *testing.B) {
					SetWorkers(wk)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p.run()
					}
					b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
				})
			}
		}
	}
}
