package core

import (
	"runtime"
	"testing"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// TestTrainStepZeroAlloc pins the tentpole perf contract: after warmup, a
// full mixed-precision SAMO training step — forward, loss, scaled backward
// with layer-granular gradient capture, optimizer step, fp16 down-cast and
// expansion — performs zero heap allocations. Everything runs on the
// trainer's arena, the layer cache pools, and the kernel job free lists.
func TestTrainStepZeroAlloc(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, workers := range []int{1, 4} {
		tensor.SetWorkers(workers)
		for _, mode := range []Mode{Dense, SAMO} {
			_, ms, _ := buildTestSetup(mode, 0.75, 7)
			tr := NewTrainer(ms)
			x, targets := makeBatch(16, 8, 4, 8)
			// Warm: arena free lists, cache pools, optimizer state, worker pool.
			for i := 0; i < 3; i++ {
				tr.TrainStep(x, targets)
			}
			if a := testing.AllocsPerRun(30, func() { tr.TrainStep(x, targets) }); a != 0 {
				t.Errorf("%v, %d workers: TrainStep allocates %.1f per step, want 0", mode, workers, a)
			}
		}
	}
}

// TestModelStateResidentBytes measures the real bytes a dense Adam training
// run holds per parameter on the bench MLP (256-768-768-768-32, 1 403 168
// parameters, the largest layer 590 592): the live-heap growth, after GC,
// of building and warming a ModelState. The state owns four float32 vectors
// per element — θ32, ∇θ16 and Adam's m and v — 16 B (a stored ∇θ32 would
// make it 20), plus one gradient scratch the size of the largest layer. It
// re-points every Param.Grad into that scratch, so the model keeps only θ16
// (its Value tensors, 4 B). The first reading builds the state over an
// already built model, whose dropped accumulators offset the scratch; the
// second builds the model too, so a model-sized gradient accumulator (4 B
// more per parameter) would show.
func TestModelStateResidentBytes(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	live := func() uint64 {
		var s runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&s)
		return s.HeapAlloc
	}
	sizes := []int{256, 768, 768, 768, 32}
	warm := func(m *nn.Model) *ModelState {
		ms := NewModelState(m, optim.NewAdam(1e-3), Dense, nil)
		for _, l := range m.Layers {
			ms.GradHook().Capture(l)
		}
		ms.Step() // allocates Adam's moments
		return ms
	}
	const slack = 0.5

	m := nn.BuildMLP("resident", sizes, tensor.NewRNG(1))
	before := live()
	ms := warm(m)
	grown := float64(live()) - float64(before)
	runtime.KeepAlive(ms)
	runtime.KeepAlive(m)
	phi := float64(m.NumParams())
	const want = 16
	if perParam := grown / phi; perParam > want+slack {
		t.Errorf("ModelState holds %.2f B per parameter (%.0f B over %.0f parameters), want ≤ %d + %.1f",
			perParam, grown, phi, want, slack)
	}

	largest := 0
	for _, l := range m.Layers {
		n := 0
		for _, p := range l.Params() {
			n += p.Size()
		}
		largest = max(largest, n)
	}
	ms, m = nil, nil
	before = live()
	m = nn.BuildMLP("resident", sizes, tensor.NewRNG(1))
	ms = warm(m)
	grown = float64(live()) - float64(before)
	runtime.KeepAlive(ms)
	runtime.KeepAlive(m)
	// θ16 (float32 Values, 4 B), the state's 16 B, and the scratch spread
	// over every parameter: ≈ 21.7 B here.
	wantAll := 4 + 16 + 4*float64(largest)/phi
	if perParam := grown / phi; perParam > wantAll+slack {
		t.Errorf("model and state hold %.2f B per parameter (%.0f B over %.0f parameters), want ≤ %.2f + %.1f",
			perParam, grown, phi, wantAll, slack)
	}
}

// stateFor prunes the model's weight matrices and wraps it in a ModelState.
func stateFor(m *nn.Model, mode Mode, sparsity float64) *ModelState {
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, sparsity)
	return NewModelState(m, optim.NewAdam(1e-3), mode, pr)
}

// TestGPTTrainStepZeroAlloc extends the zero-alloc contract to the GPT
// path: embedding lookup, attention (whose per-head fan-out used closure
// dispatch before this PR), layer norm, GELU MLP and the LM head.
func TestGPTTrainStepZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(23)
	cfg := nn.GPTConfig{Name: "alloc-gpt", Layers: 2, Hidden: 16, Heads: 2,
		Seq: 8, Vocab: 32, BatchSize: 2}
	m := nn.BuildGPT(cfg, rng)
	tr := NewTrainer(stateFor(m, SAMO, 0.5))
	tokens := make([]int, 2*cfg.Seq)
	targets := make([]int, 2*cfg.Seq)
	drng := tensor.NewRNG(24)
	for i := range tokens {
		tokens[i] = int(drng.Uint64() % uint64(cfg.Vocab))
		targets[i] = int(drng.Uint64() % uint64(cfg.Vocab))
	}
	x := nn.TokensToTensor(tokens)
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, workers := range []int{1, 4} {
		tensor.SetWorkers(workers)
		for i := 0; i < 3; i++ {
			tr.TrainStep(x, targets)
		}
		if a := testing.AllocsPerRun(20, func() { tr.TrainStep(x, targets) }); a != 0 {
			t.Errorf("%d workers: GPT TrainStep allocates %.1f per step, want 0", workers, a)
		}
	}
}
