package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// inferTestModels builds one representative model per family — an MLP
// (Linear, ReLU), a GPT (Embedding, TransformerBlock with its attention and
// GELU, LayerNorm, Linear) and a Sparsify'd MLP (the CSR Linear) — plus a
// matching input batch.
func inferTestModels() []struct {
	name  string
	model *Model
	x     *tensor.Tensor
} {
	rng := tensor.NewRNG(42)
	mlp := BuildMLP("mlp", []int{20, 32, 10}, rng)
	xMLP := tensor.New(6, 20)
	tensor.FillNormal(xMLP, 1, rng)

	base := BuildMLP("smlp", []int{20, 32, 10}, rng)
	var layers []prune.Layer
	for _, e := range base.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	smlp := Sparsify(base, prune.MagnitudePerLayer(layers, 0.9))

	gpt := BuildGPT(GPTConfig{Name: "gpt", Layers: 2, Hidden: 32, Heads: 4,
		Seq: 8, Vocab: 30}, rng)
	ids := make([]int, 2*8)
	for i := range ids {
		ids[i] = (7 * i) % 30
	}
	xGPT := TokensToTensor(ids)

	return []struct {
		name  string
		model *Model
		x     *tensor.Tensor
	}{
		{"mlp", mlp, xMLP},
		{"gpt", gpt, xGPT},
		{"smlp", smlp, xMLP},
	}
}

func bitwiseDiff(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestInferMatchesEvalForward pins the inference-path determinism golden:
// Model.Infer and the windowed two-arena InferWindowed must be
// bitwise-identical to ForwardArena(train=false) at every worker count the
// training stack uses, on all three model families. The reference is the
// eval forward at one worker; every kernel's single-owner partitioning
// makes the rest identical to it.
func TestInferMatchesEvalForward(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(0))
	for _, tc := range inferTestModels() {
		t.Run(tc.name, func(t *testing.T) {
			tensor.SetWorkers(1)
			refArena := tensor.NewArena()
			caches := make([]any, len(tc.model.Layers))
			ref := append([]float32(nil),
				tc.model.ForwardArena(refArena, tc.x, false, caches).Data()...)
			for i, c := range caches {
				if c != nil {
					t.Errorf("layer %d (%T) built a cache on the eval forward", i, tc.model.Layers[i])
				}
			}

			for _, workers := range []int{1, 2, 3, 4, 8, 16} {
				t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
					tensor.SetWorkers(workers)
					a, b := tensor.NewArena(), tensor.NewArena()

					a.Reset()
					y := tc.model.Infer(a, tc.x)
					if i, ok := bitwiseDiff(ref, y.Data()); !ok {
						t.Fatalf("Infer differs from eval forward at %d", i)
					}
					yw := tc.model.InferWindowed(a, b, tc.x)
					if i, ok := bitwiseDiff(ref, yw.Data()); !ok {
						t.Fatalf("InferWindowed differs from eval forward at %d", i)
					}
				})
			}
		})
	}
}

// TestInferSparsifiedMatchesEvalForward extends the golden to sparse
// execution: a Sparsify'd MLP's inference path must match its own eval
// forward bitwise at every worker count, below and above the half-density
// line.
func TestInferSparsifiedMatchesEvalForward(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(0))
	for _, sparsity := range []float64{0.3, 0.9} {
		t.Run(fmt.Sprintf("sparsity=%g", sparsity), func(t *testing.T) {
			rng := tensor.NewRNG(5)
			base := BuildMLP("smlp", []int{24, 48, 10}, rng)
			var layers []prune.Layer
			for _, e := range base.PruneLayers() {
				layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
			}
			m := Sparsify(base, prune.MagnitudePerLayer(layers, sparsity))
			x := tensor.New(6, 24)
			tensor.FillNormal(x, 1, rng)

			tensor.SetWorkers(1)
			refArena := tensor.NewArena()
			caches := make([]any, len(m.Layers))
			ref := append([]float32(nil), m.ForwardArena(refArena, x, false, caches).Data()...)
			for i, c := range caches {
				if c != nil {
					t.Errorf("layer %d (%T) built a cache on the eval forward", i, m.Layers[i])
				}
			}
			for _, workers := range []int{1, 2, 3, 4, 8, 16} {
				tensor.SetWorkers(workers)
				a := tensor.NewArena()
				y := m.Infer(a, x)
				if i, ok := bitwiseDiff(ref, y.Data()); !ok {
					t.Fatalf("workers=%d: sparse Infer differs from eval forward at %d", workers, i)
				}
			}
		})
	}
}

// TestInferNoAliasing pins Layer's no-aliasing contract for the eval
// forward on every layer of inferTestModels, bare and wrapped in Recompute:
// Forward(a, x, false)'s output must not share storage with its input, or
// InferWindowed's early arena reset would corrupt a result one layer later.
// Aliasing is probed by overwriting the input after the call and checking
// the output kept its bits.
func TestInferNoAliasing(t *testing.T) {
	poison := math.Float32frombits(0x7fc0dead)
	for _, tc := range inferTestModels() {
		a := tensor.NewArena()
		x := tc.x
		for i, l := range tc.model.Layers {
			for _, wrapped := range []Layer{l, Recompute{Inner: l}} {
				y, cache := wrapped.Forward(a, x, false)
				if cache != nil {
					t.Errorf("%s layer %d (%T): eval forward returned a cache", tc.name, i, wrapped)
				}
				want := append([]float32(nil), y.Data()...)
				saved := append([]float32(nil), x.Data()...)
				for j := range x.Data() {
					x.Data()[j] = poison
				}
				if j, ok := bitwiseDiff(want, y.Data()); !ok {
					t.Errorf("%s layer %d (%T): output shares storage with its input (element %d)", tc.name, i, wrapped, j)
				}
				copy(x.Data(), saved)
			}
			x, _ = l.Forward(a, x, false)
		}
	}
}

// TestInferWindowedZeroAlloc pins the serving perf contract at the model
// level: after warm-up, the windowed inference forward performs zero heap
// allocations on every model family — activations ping-pong between two
// arenas sized to the forward working set, and no cache pools are touched.
func TestInferWindowedZeroAlloc(t *testing.T) {
	for _, tc := range inferTestModels() {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tensor.NewArena(), tensor.NewArena()
			for i := 0; i < 3; i++ { // warm arenas and job pools
				tc.model.InferWindowed(a, b, tc.x)
			}
			if n := testing.AllocsPerRun(20, func() {
				tc.model.InferWindowed(a, b, tc.x)
			}); n != 0 {
				t.Fatalf("steady-state InferWindowed allocates %.1f per run, want 0", n)
			}
		})
	}
}
