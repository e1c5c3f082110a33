package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/parallel"
)

// fig1Batch and fig1Dims are the paper's Figure 1 FC shapes (batch 576,
// square weights dim×dim): BenchmarkGEMM, BenchmarkMatMulT, BenchmarkTMatMul
// and TestGEMMFloor all time this one list.
const fig1Batch = 576

var fig1Dims = []int{128, 256, 512, 1024}

// gemmFloor is the least speedup the shared-pack pipeline must hold over
// the kernel it replaced, per product, on every Figure-1 shape.
const gemmFloor = 1.5

// gemmSides returns one Figure-1 product at width dim, computed two ways:
// base, the kernel dispatch used before the shared-pack port — the seed
// saxpy kernel for the forward GEMM, the 4×4 register-tile kernels for
// the input gradient dX = G·Wᵀ (MatMulT) and the weight gradient dW = Xᵀ·G
// (TMatMul) — and shared, the pipeline dispatch runs now.
func gemmSides(family string, dim int) (base, shared func()) {
	rng := NewRNG(7)
	switch family {
	case "GEMM":
		a, w, c := New(fig1Batch, dim), New(dim, dim), New(fig1Batch, dim)
		fillSeq(a, rng)
		fillSeq(w, rng)
		return func() { runChunked(gemmSaxpyChunk, fig1Batch, c, a, w, fig1Batch, dim, dim) },
			func() { gemm(c.data, a.data, w.data, fig1Batch, dim, dim, false) }
	case "MatMulT":
		g, w, c := New(fig1Batch, dim), New(dim, dim), New(fig1Batch, dim)
		fillSeq(g, rng)
		fillSeq(w, rng)
		return func() { runChunked(gemmTChunk, fig1Batch, c, g, w, fig1Batch, dim, dim) },
			func() { MatMulTInto(c, g, w, false) }
	case "TMatMul":
		x, g, c := New(fig1Batch, dim), New(fig1Batch, dim), New(dim, dim)
		fillSeq(x, rng)
		fillSeq(g, rng)
		return func() { runChunked(tGemmChunk, dim, c, x, g, dim, fig1Batch, dim) },
			func() { TMatMulInto(c, x, g, false) }
	}
	panic("tensor: no GEMM family " + family)
}

// runChunked runs a pre-shared-pack kernel over rows [0, rows) on the
// worker pool, as dispatch did.
func runChunked(kernel func(any, int, int), rows int, c, a, b *Tensor, m, k, n int) {
	j := getGemmJob()
	j.c, j.a, j.b = c.data, a.data, b.data
	j.m, j.k, j.n = m, k, n
	j.accumulate = false
	parallel.Run(rows, gemmGrain, j, kernel)
	putGemmJob(j)
}

// benchGEMMSides times a family's two sides at every Figure-1 shape, as
// <base>/<dim> and shared/<dim>.
func benchGEMMSides(b *testing.B, family, baseName string) {
	for _, dim := range fig1Dims {
		base, shared := gemmSides(family, dim)
		flops := 2 * float64(fig1Batch) * float64(dim) * float64(dim)
		for _, side := range []struct {
			name string
			run  func()
		}{{baseName, base}, {"shared", shared}} {
			b.Run(fmt.Sprintf("%s/%d", side.name, dim), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					side.run()
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}

// BenchmarkGEMM times the dense forward kernel at the Figure-1 shapes: "seed"
// is the saxpy kernel the repository started with and "shared" the
// shared-pack pipeline that dispatch now uses. TestGEMMFloor gates the
// seed/shared ratio.
func BenchmarkGEMM(b *testing.B) { benchGEMMSides(b, "GEMM", "seed") }

// fastest runs base and shared back to back n times and returns each side's
// fastest run: noise, and the first run's cold pools and caches, only ever
// add time.
func fastest(n int, base, shared func()) (tBase, tShared time.Duration) {
	tBase, tShared = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		base()
		t1 := time.Now()
		shared()
		tBase, tShared = min(tBase, t1.Sub(t0)), min(tShared, time.Since(t1))
	}
	return tBase, tShared
}

// TestGEMMFloor is the floor under the dense GEMM, the paper's lever on
// throughput (Figure 1): on every Figure-1 shape the shared-pack forward
// GEMM must run gemmFloor× faster than the seed kernel, and the shared-pack
// MatMulT and TMatMul gemmFloor× faster than the tiled kernels, each side's
// fastest of three back-to-back runs against the other's. On AVX2 the vector
// micro-kernel puts every ratio far above the floor (2 vCPUs: 6.7–14×), so
// a failure means a build or host that lost the kernel. It skips where the
// host has no AVX2 (the Go kernels read 1.15–2.2× there, too close to the
// floor to gate on a shared machine) and under -race and -short. It gates
// the transposed products only on more than one CPU: a one-core box leaves
// no headroom against scheduler noise.
func TestGEMMFloor(t *testing.T) {
	if testing.Short() || raceBuild || !HostAVX2() {
		t.Skip("kernel floors need an AVX2 host and an optimized, full-length run")
	}
	families := []string{"GEMM", "MatMulT", "TMatMul"}
	if runtime.NumCPU() < 2 {
		t.Log("one CPU: MatMulT and TMatMul not gated")
		families = families[:1]
	}
	for _, family := range families {
		for _, dim := range fig1Dims {
			base, shared := gemmSides(family, dim)
			tBase, tShared := fastest(3, base, shared)
			ratio := float64(tBase) / float64(tShared)
			t.Logf("%s/%d: shared %.2f× over base (%v vs %v)", family, dim, ratio, tShared, tBase)
			if ratio < gemmFloor {
				t.Errorf("%s/%d: shared-pack kernel %.2f× over base, floor %.1f×", family, dim, ratio, gemmFloor)
			}
		}
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
// Figure-1 backward shapes: "tiled" is the 4×4 register-tile kernel
// dispatch used before the shared-pack port, "shared" the pipeline it uses
// now. TestGEMMFloor gates the tiled/shared ratio.
func BenchmarkMatMulT(b *testing.B) { benchGEMMSides(b, "MatMulT", "tiled") }

// BenchmarkTMatMul times the weight-gradient product dW = Xᵀ·G at the same
// shapes; "tiled" vs "shared" as in BenchmarkMatMulT.
func BenchmarkTMatMul(b *testing.B) { benchGEMMSides(b, "TMatMul", "tiled") }

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
