// Ablation benches for the paper's §III design decisions, and the real
// engine's training step, serial and hybrid-parallel. Custom metrics report
// the quantity the paper argues with (bytes of state, elements
// communicated, simulated pipeline span) alongside the harness's own ns/op.
// The paper's figures and tables come from cmd/samo-experiments, their
// shapes are asserted in internal/experiments' tests, and bench/run.sh is
// the end-to-end benchmark.
package samo_test

import (
	"testing"

	"github.com/sparse-dl/samo/internal/axonn"
	"github.com/sparse-dl/samo/internal/core"
	"github.com/sparse-dl/samo/internal/hw"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/simulate"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// --- Ablation benches (the paper's §III design decisions) -------------------

// BenchmarkAblationSharedIndex quantifies §III-B decision 1: all compressed
// states of a layer share ONE index tensor. Paying the index once costs 4fφ;
// per-tensor copies would cost 16fφ (four compressed states).
func BenchmarkAblationSharedIndex(b *testing.B) {
	phi := int64(10_000_000)
	kept := phi / 10
	shared := core.SAMOBreakdown(phi, kept)
	perTensor := shared
	perTensor.Index *= 4
	for i := 0; i < b.N; i++ {
		_ = shared.Total()
		_ = perTensor.Total()
	}
	b.ReportMetric(float64(shared.Total()), "shared-bytes")
	b.ReportMetric(float64(perTensor.Total()), "per-tensor-bytes")
}

// BenchmarkAblationLinearIndex quantifies §III-B decision 2: linearized 1-D
// indices cost one int32 per non-zero instead of N for an N-D tensor.
func BenchmarkAblationLinearIndex(b *testing.B) {
	// A conv filter is 4-D: (outC, inC, k, k). Coordinate storage would be
	// 4 int32 per non-zero.
	const dims = 4
	phi := int64(10_000_000)
	kept := phi / 10
	linear := kept * 4
	coords := kept * 4 * dims
	for i := 0; i < b.N; i++ {
		_ = linear
		_ = coords
	}
	b.ReportMetric(float64(linear), "linear-bytes")
	b.ReportMetric(float64(coords), "coord-bytes")
}

// BenchmarkAblationLayerGranular measures §III-C's layer-granular gradient
// compression: peak dense-gradient residency is one layer, not the model —
// the state's gradient scratch is exactly the largest layer's. The metric
// reported is the peak number of uncompressed gradient elements alive at
// once under each policy.
func BenchmarkAblationLayerGranular(b *testing.B) {
	rng := tensor.NewRNG(1)
	model := nn.BuildMLP("ablate", []int{64, 128, 128, 64, 8}, rng)
	pr := samoPrune(model, 0.9)
	state := core.NewModelState(model, optim.NewAdam(1e-3), core.SAMO, pr)
	x := tensor.New(8, 64)
	tensor.FillNormal(x, 1, rng)
	targets := []int{0, 1, 2, 3, 4, 5, 6, 7}

	var peakLayer, peakModel int
	for _, l := range model.Layers {
		n := 0
		for _, p := range l.Params() {
			n += p.Size()
		}
		if n > peakLayer {
			peakLayer = n
		}
		peakModel += n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y, caches := model.Forward(x, true)
		_, g := nn.CrossEntropy(y, targets)
		tensor.Scale(g, state.LossScale())
		model.Backward(caches, g, state.GradHook())
		state.Step()
	}
	b.ReportMetric(float64(peakLayer), "peak-dense-grads/layer-granular")
	b.ReportMetric(float64(peakModel), "peak-dense-grads/whole-model")
}

// BenchmarkAblationCompressedAllReduce compares the data-parallel all-reduce
// payload with and without SAMO's compressed gradients (§IV-A) on the real
// fabric, reporting elements moved per batch.
func BenchmarkAblationCompressedAllReduce(b *testing.B) {
	build := func() *nn.Model {
		return nn.BuildMLP("ar", []int{32, 64, 32, 8}, tensor.NewRNG(3))
	}
	pr := samoPrune(build(), 0.9)
	batch := benchBatch(32, 8, 4)
	for _, mode := range []core.Mode{core.Dense, core.SAMO} {
		name := "dense"
		if mode == core.SAMO {
			name = "compressed"
		}
		b.Run(name, func(b *testing.B) {
			var elements int64
			for i := 0; i < b.N; i++ {
				res := axonn.Train(axonn.Config{
					Ginter: 1, Gdata: 2, Microbatch: 4, Mode: mode,
				}, build, func() optim.Optimizer { return optim.NewAdam(1e-3) }, pr,
					[]axonn.Batch{batch})
				elements = res.Fabric.TotalCollElements()
			}
			b.ReportMetric(float64(elements), "reduce-elements")
		})
	}
}

// BenchmarkAblationGinterChoice sweeps forced Ginter values for GPT-3 2.7B
// with SAMO at 512 GPUs, demonstrating §IV-B: batch time grows with Ginter,
// so the memory-minimal Ginter the planner picks is also the fastest.
func BenchmarkAblationGinterChoice(b *testing.B) {
	m := hw.Summit()
	j := simulate.TransformerJob(nn.GPT3_2B7)
	var times []float64
	for i := 0; i < b.N; i++ {
		times = times[:0]
		for _, gi := range []int{2, 4, 8, 16} {
			spec := simulate.PipelineSpec{
				Stages:       gi,
				Microbatches: j.Batch / (512 / gi),
				FwdTime:      j.FlopsPerBatch / float64(j.Batch) * 0.25 / float64(gi) / (m.PeakHalfFlops * m.TrainEfficiency),
				BwdTime:      j.FlopsPerBatch / float64(j.Batch) * 0.75 / float64(gi) / (m.PeakHalfFlops * m.TrainEfficiency),
				XferTime:     m.P2PTime(int64(2*j.Seq*j.Hidden), false),
			}
			times = append(times, simulate.SimulatePipeline(spec, false).Span)
		}
	}
	for i, gi := range []int{2, 4, 8, 16} {
		b.ReportMetric(times[i], "span-s/Ginter"+itoa(gi))
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + itoa(n%10)
}

// BenchmarkEndToEndParallelStep times one full hybrid-parallel training
// iteration (2×2 ranks, SAMO) on the real engine. One Train call drives
// b.N batches, so ns/op and allocs/op measure the steady-state per-batch
// cost: with the worker arenas, cache pools and pooled collective buffers
// the engine settles at 0 allocs/op (setup amortizes away).
func BenchmarkEndToEndParallelStep(b *testing.B) {
	build := func() *nn.Model {
		return nn.BuildMLP("e2e", []int{64, 128, 64, 8}, tensor.NewRNG(5))
	}
	pr := samoPrune(build(), 0.9)
	batch := benchBatch(64, 16, 8)
	batches := make([]axonn.Batch, b.N)
	for i := range batches {
		batches[i] = batch
	}
	b.ReportAllocs()
	b.ResetTimer()
	axonn.Train(axonn.Config{Ginter: 2, Gdata: 2, Microbatch: 4, Mode: core.SAMO},
		build, func() optim.Optimizer { return optim.NewAdam(1e-3) }, pr,
		batches)
}

// BenchmarkSerialTrainStep times the single-process trainer on the same
// model, asserting the zero-alloc steady state from the ns/op side.
func BenchmarkSerialTrainStep(b *testing.B) {
	model := nn.BuildMLP("serial", []int{64, 128, 64, 8}, tensor.NewRNG(5))
	pr := samoPrune(model, 0.9)
	state := core.NewModelState(model, optim.NewAdam(1e-3), core.SAMO, pr)
	tr := core.NewTrainer(state)
	batch := benchBatch(64, 16, 8)
	tr.TrainStep(batch.Input, batch.Targets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainStep(batch.Input, batch.Targets)
	}
}

// BenchmarkCompressExpandRoundTrip times SAMO's two primitives at a
// realistic layer size.
func BenchmarkCompressExpandRoundTrip(b *testing.B) {
	n := 1 << 20
	mask := sparse.NewMask(n)
	rng := tensor.NewRNG(7)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			mask.Set(i)
		}
	}
	ix := sparse.NewIndex(mask)
	dense := make([]float32, n)
	comp := make([]float32, ix.NNZ())
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Compress(comp, dense)
		ix.Expand(dense, comp)
	}
}

// --- helpers ----------------------------------------------------------------

func samoPrune(m *nn.Model, sparsity float64) *prune.Result {
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	return prune.MagnitudePerLayer(layers, sparsity)
}

func benchBatch(inDim, samples, classes int) axonn.Batch {
	rng := tensor.NewRNG(9)
	x := tensor.New(samples, inDim)
	tensor.FillNormal(x, 1, rng)
	targets := make([]int, samples)
	for i := range targets {
		targets[i] = int(rng.Uint64() % uint64(classes))
	}
	return axonn.Batch{Input: x, Targets: targets, SampleRows: 1, Samples: samples}
}
