package core

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"github.com/sparse-dl/samo/internal/ckpt"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// buildInferSetup mirrors buildTestSetup for the forward-only state: same
// seed, same pruning identity, independent model instance.
func buildInferSetup(mode Mode, sparsity float64, seed uint64) (*nn.Model, *InferenceState) {
	rng := tensor.NewRNG(seed)
	m := nn.BuildMLP("mlp", []int{8, 16, 4}, rng)
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, sparsity)
	return m, NewInferenceState(m, optim.NewAdam(0.01), mode, pr)
}

// TestInferenceFingerprintMatchesModelState pins the checkpoint-handoff
// contract: an InferenceState built with the same (model, optimizer, mode,
// pruning) identity as a training ModelState hashes to the SAME
// fingerprint, so ckpt.Manager accepts a training checkpoint into
// inference mode — and refuses one from a different configuration.
func TestInferenceFingerprintMatchesModelState(t *testing.T) {
	for _, mode := range []Mode{Dense, SAMO} {
		t.Run(mode.String(), func(t *testing.T) {
			_, ms, pr := buildTestSetup(mode, 0.5, 3)
			rng := tensor.NewRNG(3)
			m2 := nn.BuildMLP("mlp", []int{8, 16, 4}, rng)
			is := NewInferenceState(m2, optim.NewAdam(0.01), mode, pr)
			if ms.Fingerprint() != is.Fingerprint() {
				t.Fatalf("fingerprints differ: training %x, inference %x",
					ms.Fingerprint(), is.Fingerprint())
			}
		})
	}
	// Cross-mode fingerprints must differ (a SAMO checkpoint cannot load
	// into a dense-built inference state).
	_, msD, prD := buildTestSetup(Dense, 0.5, 3)
	rng := tensor.NewRNG(3)
	isS := NewInferenceState(nn.BuildMLP("mlp", []int{8, 16, 4}, rng),
		optim.NewAdam(0.01), SAMO, prD)
	if msD.Fingerprint() == isS.Fingerprint() {
		t.Fatal("dense training and SAMO inference fingerprints collide")
	}
}

// TestInferenceStateMemoryForwardOnly pins the shrunken footprint: the
// forward-only ledger is the θ16 line alone — no gradients, no master
// weights, no optimizer states, no down-cast temp — matching the 2φ closed
// form, and every Param.Grad is released.
func TestInferenceStateMemoryForwardOnly(t *testing.T) {
	m, is := buildInferSetup(Dense, 0, 7)
	b := is.Memory()
	if b.Grad16 != 0 || b.Theta32 != 0 || b.Grad32 != 0 || b.OptStates != 0 || b.TempCopy != 0 {
		t.Fatalf("training components in inference ledger: %+v", b)
	}
	phi := int64(m.NumParams())
	if want := (MemoryBreakdown{Theta16: BytesTheta16 * phi}); b != want {
		t.Fatalf("ledger %+v != closed form %+v", b, want)
	}
	for _, p := range m.Params() {
		if p.Grad != nil {
			t.Fatalf("%s still holds a gradient tensor", p.Name)
		}
	}
	// And it is strictly smaller than any training configuration.
	_, ms, _ := buildTestSetup(Dense, 0, 7)
	if b.Total() >= ms.Memory().Total() {
		t.Fatalf("inference footprint %d not below training %d", b.Total(), ms.Memory().Total())
	}
}

// TestInferenceCheckpointRoundTrip is the handoff golden: train, snapshot,
// load into a fresh forward-only state, and require the inference forward
// to match the trained model's eval forward BITWISE, in both storage
// modes. Also pins that InferenceState refuses to Save.
func TestInferenceCheckpointRoundTrip(t *testing.T) {
	for _, mode := range []Mode{Dense, SAMO} {
		t.Run(mode.String(), func(t *testing.T) {
			_, ms, pr := buildTestSetup(mode, 0.5, 3)
			tr := NewTrainer(ms)
			for i := 0; i < 5; i++ {
				x, targets := makeBatch(8, 8, 4, uint64(20+i))
				tr.TrainStep(x, targets)
			}
			var buf bytes.Buffer
			if _, err := ms.Save(&buf); err != nil {
				t.Fatal(err)
			}

			rng := tensor.NewRNG(3)
			m2 := nn.BuildMLP("mlp", []int{8, 16, 4}, rng)
			is := NewInferenceState(m2, optim.NewAdam(0.01), mode, pr)
			if err := is.Load(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			if _, err := is.Save(&bytes.Buffer{}); err == nil {
				t.Fatal("InferenceState.Save must refuse (read-only state)")
			}

			x, _ := makeBatch(8, 8, 4, 99)
			a := tensor.NewArena()
			want := append([]float32(nil), ms.Model().Infer(a, x).Data()...)
			a.Reset()
			got := is.Model().Infer(a, x).Data()
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("output %d differs after checkpoint handoff: %x vs %x",
						i, math.Float32bits(want[i]), math.Float32bits(got[i]))
				}
			}
		})
	}
}

// TestInferenceLoadTransactional pins parse-then-commit on the inference
// loader: a corrupt snapshot must leave the weights bitwise-unchanged.
func TestInferenceLoadTransactional(t *testing.T) {
	_, ms, pr := buildTestSetup(SAMO, 0.5, 3)
	tr := NewTrainer(ms)
	x, targets := makeBatch(8, 8, 4, 21)
	tr.TrainStep(x, targets)
	var buf bytes.Buffer
	if _, err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xFF // corrupt the payload: CRC must catch it

	rng := tensor.NewRNG(3)
	m2 := nn.BuildMLP("mlp", []int{8, 16, 4}, rng)
	is := NewInferenceState(m2, optim.NewAdam(0.01), SAMO, pr)
	before := make(map[string][]float32)
	for _, p := range m2.Params() {
		before[p.Name] = append([]float32(nil), p.Value.Data()...)
	}
	if err := is.Load(raw); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
	for _, p := range m2.Params() {
		for i, v := range p.Value.Data() {
			if math.Float32bits(v) != math.Float32bits(before[p.Name][i]) {
				t.Fatalf("%s[%d] mutated by failed load", p.Name, i)
			}
		}
	}
}

// TestInferenceCkptManagerHandoff runs the handoff through internal/ckpt:
// the manager's manifest carries tag + fingerprint, so a training
// checkpoint loads into a matching inference state and is refused by a
// structurally different one.
func TestInferenceCkptManagerHandoff(t *testing.T) {
	_, ms, pr := buildTestSetup(Dense, 0.5, 3)
	tr := NewTrainer(ms)
	x, targets := makeBatch(8, 8, 4, 22)
	tr.TrainStep(x, targets)

	dir := t.TempDir()
	mgr, err := ckpt.New(ckpt.Options{Dir: filepath.Join(dir, "ck"), Shards: 1, Tag: "handoff"})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Save(1, 0, ms); err != nil {
		t.Fatal(err)
	}

	rng := tensor.NewRNG(3)
	is := NewInferenceState(nn.BuildMLP("mlp", []int{8, 16, 4}, rng),
		optim.NewAdam(0.01), Dense, pr)
	if err := mgr.Load(1, 0, is); err != nil {
		t.Fatalf("manager refused a matching inference state: %v", err)
	}

	// A structurally different inference state must be refused up front.
	rng2 := tensor.NewRNG(3)
	wrong := NewInferenceState(nn.BuildMLP("mlp", []int{8, 32, 4}, rng2),
		optim.NewAdam(0.01), Dense, nil)
	if err := mgr.Load(1, 0, wrong); err == nil {
		t.Fatal("manager loaded a checkpoint into a mismatched inference state")
	}
}

// TestInferencerZeroAllocAndEquivalence pins the serving hot path: the
// Inferencer's windowed forward matches the model's eval forward bitwise
// and performs zero heap allocations in steady state — with no Grad or
// optimizer tensors resident (the state's ledger is θ16-only).
func TestInferencerZeroAllocAndEquivalence(t *testing.T) {
	m, is := buildInferSetup(Dense, 0, 13)
	inf := NewInferencer(is)
	x, _ := makeBatch(8, 8, 4, 31)

	a := tensor.NewArena()
	want := append([]float32(nil), m.Infer(a, x).Data()...)
	got := inf.Forward(x)
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got.Data()[i]) {
			t.Fatalf("Inferencer.Forward differs at %d", i)
		}
	}
	for i := 0; i < 3; i++ { // warm arenas and job pools
		inf.Forward(x)
	}
	if n := testing.AllocsPerRun(20, func() { inf.Forward(x) }); n != 0 {
		t.Fatalf("steady-state Inferencer.Forward allocates %.1f per run, want 0", n)
	}
}
