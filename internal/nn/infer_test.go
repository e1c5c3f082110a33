package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// inferTestModels builds one representative model per family — together
// they cover every layer the repo ships (Linear, ReLU, GELU, LayerNorm,
// Embedding, attention, Conv2d, BatchNorm2d, MaxPool, GlobalAvgPool,
// residual blocks, Flatten) — plus a matching input batch.
func inferTestModels() []struct {
	name  string
	model *Model
	x     *tensor.Tensor
} {
	rng := tensor.NewRNG(42)
	mlp := BuildMLP("mlp", []int{20, 32, 10}, rng)
	xMLP := tensor.New(6, 20)
	tensor.FillNormal(xMLP, 1, rng)

	cnn := BuildVGG("cnn", []int{8, -1, 16, -1}, 3, 8, 10, rng)
	xCNN := tensor.New(2, 3, 8, 8)
	tensor.FillNormal(xCNN, 1, rng)

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
		{"cnn", cnn, xCNN},
		{"gpt", gpt, xGPT},
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
// forward bitwise at every worker count, on either pinned path and under
// the density rule.
func TestInferSparsifiedMatchesEvalForward(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(0))
	for _, mode := range []string{"sparse", "dense", "auto"} {
		t.Run(mode, func(t *testing.T) {
			prev, err := sparse.SetXover(mode)
			if err != nil {
				t.Fatal(err)
			}
			defer sparse.SetXover(prev)

			rng := tensor.NewRNG(5)
			base := BuildMLP("smlp", []int{24, 48, 10}, rng)
			var layers []prune.Layer
			for _, e := range base.PruneLayers() {
				layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
			}
			pr := prune.MagnitudePerLayer(layers, 0.9)
			m := Sparsify(base, pr)
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

// TestInferNoAliasing pins the InferLayer no-aliasing contract on the one
// layer whose eval Forward returns a view: Flatten.Infer must copy, so
// InferWindowed's early arena reset cannot corrupt a result that flows
// through it — including when Flatten is wrapped in Recompute.
func TestInferNoAliasing(t *testing.T) {
	rng := tensor.NewRNG(9)
	x := tensor.New(3, 2, 4, 4)
	tensor.FillNormal(x, 1, rng)

	var fl Flatten
	a := tensor.NewArena()
	y := fl.Infer(a, x)
	if &y.Data()[0] == &x.Data()[0] {
		t.Fatal("Flatten.Infer aliases its input")
	}
	if i, ok := bitwiseDiff(x.Data(), y.Data()); !ok {
		t.Fatalf("Flatten.Infer copy differs at %d", i)
	}
	yr := (&Recompute{Inner: &fl}).Infer(a, x)
	if &yr.Data()[0] == &x.Data()[0] {
		t.Fatal("Recompute(Flatten).Infer aliases its input")
	}

	// End-to-end: a model whose tail flows through Flatten survives the
	// windowed runner's ping-pong resets.
	m := &Model{Name: "flat", Layers: []Layer{&fl, NewLinear("fc", 32, 4, rng)}}
	refArena := tensor.NewArena()
	ref := append([]float32(nil), m.ForwardArena(refArena, x, false, make([]any, 2)).Data()...)
	yw := m.InferWindowed(tensor.NewArena(), tensor.NewArena(), x)
	if i, ok := bitwiseDiff(ref, yw.Data()); !ok {
		t.Fatalf("windowed result through Flatten differs at %d", i)
	}
}

// TestInferWindowedZeroAlloc pins the serving perf contract at the model
// level: after warm-up, the windowed inference forward performs zero heap
// allocations on every model family — activations ping-pong between two
// arenas sized to the forward working set, and no cache pools are touched.
func TestInferWindowedZeroAlloc(t *testing.T) {
	// Hermetic allocation counting: a background tune-table save would
	// show up as phantom allocs (see TestCompressExpandZeroAlloc in
	// internal/sparse).
	t.Setenv("SAMO_GEMM_TUNE", "off")
	for _, tc := range inferTestModels() {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tensor.NewArena(), tensor.NewArena()
			for i := 0; i < 3; i++ { // warm arenas, autotuner, job pools
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
