package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// buildSparseExecSetup prunes an MLP and stores its Linears' weights as
// CSRs (Sparsify), wrapped in a SAMO-mode ModelState — the sparse-execution
// training stack end to end.
func buildSparseExecSetup(sparsity float64, seed uint64) (*nn.Model, *ModelState) {
	sm, pr := sparsifiedModel(sparsity, seed)
	return sm, NewModelState(sm, optim.NewAdam(0.01), SAMO, pr)
}

// sparsifiedModel is buildSparseExecSetup's model and pruning result, for
// callers that wrap them in a state of their own.
func sparsifiedModel(sparsity float64, seed uint64) (*nn.Model, *prune.Result) {
	rng := tensor.NewRNG(seed)
	m := nn.BuildMLP("smlp", []int{16, 32, 8}, rng)
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, sparsity)
	return nn.Sparsify(m, pr), pr
}

// csrWeights returns the model's CSR weights in parameter order.
func csrWeights(m *nn.Model) []*nn.Param {
	var ws []*nn.Param
	for _, p := range m.Params() {
		if p.CSR != nil {
			ws = append(ws, p)
		}
	}
	return ws
}

// TestSparseExecTrainStepZeroAlloc pins the sparse execution path's perf
// contract: a full pruned-model TrainStep over CSR weights — CSR forward,
// SDDMM weight gradient, in-place CSR input gradient, rank-1 weight-vector
// capture and optimizer step — runs at zero steady-state
// allocations.
func TestSparseExecTrainStepZeroAlloc(t *testing.T) {
	_, ms := buildSparseExecSetup(0.9, 17)
	tr := NewTrainer(ms)
	x, targets := makeBatch(16, 16, 8, 18)
	for i := 0; i < 3; i++ {
		tr.TrainStep(x, targets)
	}
	if a := testing.AllocsPerRun(30, func() { tr.TrainStep(x, targets) }); a != 0 {
		t.Errorf("sparse TrainStep allocates %.1f per step, want 0", a)
	}
}

// TestSparseLinearForwardBackwardZeroAlloc pins the layer in isolation: a
// steady-state forward+backward pair over the arena allocates nothing.
// Workers are pinned above one so the pooled parallel dispatch (not the
// inline fallback) is what is pinned.
func TestSparseLinearForwardBackwardZeroAlloc(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(4))
	// 50%: SDDMM reads x through the windowed kernel.
	for _, sparsity := range []float64{0.9, 0.5} {
		rng := tensor.NewRNG(19)
		dense := nn.NewLinear("fc", 64, 48, rng)
		pr := prune.MagnitudePerLayer(
			[]prune.Layer{{Name: "fc.weight", Values: dense.W.Value.Data()}}, sparsity)
		sl := nn.Sparsify(&nn.Model{Layers: []nn.Layer{dense}}, pr).Layers[0]
		x := tensor.New(32, 64)
		tensor.FillNormal(x, 1, rng)
		arena := tensor.NewArena()
		step := func() {
			y, cache := sl.Forward(arena, x, true)
			sl.Backward(arena, cache, y) // y has the gradient's shape
			arena.Reset()
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if a := testing.AllocsPerRun(30, step); a != 0 {
			t.Errorf("sparsity=%g: CSR Linear forward+backward allocates %.1f per step, want 0", sparsity, a)
		}
	}
}

// TestSparseExecTrainStepDeterminism pins the acceptance contract on the
// whole pruned-model training step: training is bitwise-identical — loss
// bits and θ32 — at every worker count, at 90% sparsity, at 50% (the
// windowed SDDMM) and at 30%, below the half-density line: every sparse
// kernel accumulates in a fixed per-element order, so neither pool resizing
// nor timing can perturb results.
func TestSparseExecTrainStepDeterminism(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(0))
	for _, tc := range []struct {
		name     string
		sparsity float64
		workers  []int
	}{
		{"90%", 0.9, []int{1, 2, 3, 4, 8, 16}},
		{"50%", 0.5, []int{1, 4}},
		{"30%", 0.3, []int{1, 4}},
	} {
		var refLoss []float64
		var ref [][]float32
		for _, workers := range tc.workers {
			tensor.SetWorkers(workers)
			_, ms := buildSparseExecSetup(tc.sparsity, 23)
			tr := NewTrainer(ms)
			var losses []float64
			for step := 0; step < 4; step++ {
				x, targets := makeBatch(12, 16, 8, uint64(300+step))
				loss, _ := tr.TrainStep(x, targets)
				losses = append(losses, loss)
			}
			var theta [][]float32
			for _, st := range ms.states {
				theta = append(theta, st.theta32)
			}
			if ref == nil {
				refLoss, ref = losses, theta
				continue
			}
			for i := range losses {
				if math.Float64bits(losses[i]) != math.Float64bits(refLoss[i]) {
					t.Fatalf("%s, workers=%d: loss[%d] = %g, %d-worker run %g", tc.name, workers, i, losses[i], tc.workers[0], refLoss[i])
				}
			}
			for pi, p := range theta {
				for i := range p {
					if math.Float32bits(ref[pi][i]) != math.Float32bits(p[i]) {
						t.Fatalf("%s, workers=%d: θ32 of param %d differs from the %d-worker run at %d (%g vs %g)",
							tc.name, workers, pi, tc.workers[0], i, ref[pi][i], p[i])
					}
				}
			}
		}
	}
}

// TestSparseExecMatchesMaskedDenseTraining checks the sparse execution
// path's training math against the masked-dense reference the repo already
// trusts: the same pruned MLP trained through CSR weights and through
// masked-dense Linear layers converges to the same parameters
// within fp16-roundoff tolerance (the two paths sum in different orders, so
// bitwise equality is not expected — unlike across worker counts).
func TestSparseExecMatchesMaskedDenseTraining(t *testing.T) {
	// Masked-dense reference: pruned Linears in Dense mode enforce the mask.
	_, msD, _ := buildTestSetup(Dense, 0.9, 29)
	rng := tensor.NewRNG(29)
	m2 := nn.BuildMLP("mlp", []int{8, 16, 4}, rng)
	var layers []prune.Layer
	for _, e := range m2.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, 0.9)
	sm := nn.Sparsify(m2, pr)
	msS := NewModelState(sm, optim.NewAdam(0.01), SAMO, pr)

	trD, trS := NewTrainer(msD), NewTrainer(msS)
	var lastD, lastS float64
	for step := 0; step < 8; step++ {
		x, targets := makeBatch(6, 8, 4, uint64(400+step))
		lastD, _ = trD.TrainStep(x, targets)
		lastS, _ = trS.TrainStep(x.Clone(), targets)
	}
	if math.Abs(lastD-lastS) > 1e-3*(1+math.Abs(lastD)) {
		t.Fatalf("sparse-exec loss %g diverged from masked-dense %g", lastS, lastD)
	}
	// Compare the CSR values against the masked-dense weights compressed
	// onto the same indices: both are in the index's order.
	for _, w := range csrWeights(sm) {
		var denseVal []float32
		for _, p := range msD.Model().Params() {
			if p.Name == w.Name {
				denseVal = p.Value.Data()
			}
		}
		if denseVal == nil {
			t.Fatalf("no masked-dense twin for %s", w.Name)
		}
		ix := pr.Index(w.Name)
		comp := make([]float32, ix.NNZ())
		ix.Compress(comp, denseVal)
		for i, got := range w.Value.Data() {
			if d := math.Abs(float64(comp[i] - got)); d > 2e-2 {
				t.Fatalf("%s[%d]: sparse-exec %g vs masked-dense %g", w.Name, i, got, comp[i])
			}
		}
	}
}

// TestSparseExecMemoryLedger checks that the ledger sees a CSR weight
// honestly: θ16 itself shrinks to the surviving coordinates (the paper
// keeps θ16 dense only because it computes dense; under sparse execution it
// compresses too) and the CSR structure is accounted as index bytes.
func TestSparseExecMemoryLedger(t *testing.T) {
	sm, ms := buildSparseExecSetup(0.9, 31)
	b := ms.Memory()
	var nnz, biases int64
	var meta int64
	for _, l := range sm.Layers {
		if lin, ok := l.(*nn.Linear); ok && lin.W.CSR != nil {
			nnz += int64(lin.W.CSR.NNZ())
			biases += int64(lin.B.Value.Len())
			meta += 4 * int64(len(lin.W.CSR.RowPtr)+len(lin.W.CSR.ColIdx))
		}
	}
	if want := BytesTheta16 * (nnz + biases); b.Theta16 != want {
		t.Errorf("Theta16 = %d, want %d (compressed θ16 + dense biases)", b.Theta16, want)
	}
	if b.Index != meta {
		t.Errorf("Index = %d, want %d (the CSR patterns)", b.Index, meta)
	}
}

// TestSparseExecStateBitsPinned trains a Sparsify'd SAMO MLP at 50 % (the
// windowed SDDMM) and at 90 % (the gathered one) for a few steps and
// compares a hash of its checkpoint (θ32, Adam's moments, the pattern ids,
// the loss scale) and of every step's loss to constants recorded on an amd64
// host with FMA, at two worker counts. The batch of 60 runs the CSR
// products' 48- and 8-lane kernels and the Go chain's rest of 4. The losses
// are hashed as float32: the float64 mean's last bit follows math.Exp's FMA
// path (one step of the 90 % run reads 1 ulp apart under
// GODEBUG=cpu.fma=off), while the state hash holds on both.
func TestSparseExecStateBitsPinned(t *testing.T) {
	const steps = 6
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, tc := range []struct {
		sparsity            float64
		wantState, wantLoss uint64
	}{
		{0.5, 0x4592e180b9d892b2, 0x73550379db9a6369},
		{0.9, 0x701ab48a53ae7aaa, 0x0f3172b84ae94d8b},
	} {
		for _, workers := range []int{1, 3} {
			tensor.SetWorkers(workers)
			rng := tensor.NewRNG(61)
			m := nn.BuildMLP("pinned-smlp", []int{64, 96, 48, 40}, rng)
			var layers []prune.Layer
			for _, e := range m.PruneLayers() {
				layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
			}
			pr := prune.MagnitudePerLayer(layers, tc.sparsity)
			ms := NewModelState(nn.Sparsify(m, pr), optim.NewAdam(0.01), SAMO, pr)
			tr := NewTrainer(ms)
			lossHash := fnv.New64a()
			for step := 0; step < steps; step++ {
				x, targets := makeBatch(60, 64, 40, uint64(62+step))
				loss, _ := tr.TrainStep(x, targets)
				binary.Write(lossHash, binary.LittleEndian, math.Float32bits(float32(loss)))
			}
			if ms.steps < steps/2 {
				t.Fatalf("%g, %d workers: only %d of %d steps applied", tc.sparsity, workers, ms.steps, steps)
			}
			stateHash := fnv.New64a()
			if _, err := ms.Save(stateHash); err != nil {
				t.Fatal(err)
			}
			if got := stateHash.Sum64(); got != tc.wantState {
				t.Errorf("%g, %d workers: state hash %#x, recorded %#x", tc.sparsity, workers, got, tc.wantState)
			}
			if got := lossHash.Sum64(); got != tc.wantLoss {
				t.Errorf("%g, %d workers: loss hash %#x, recorded %#x", tc.sparsity, workers, got, tc.wantLoss)
			}
		}
	}
}

// TestSparsifiedCheckpointCrossLoads pins that a CSR weight keeps its state
// in the SAMO index's own order: a checkpoint of a Sparsify'd SAMO run loads
// into a plain SAMO ModelState and InferenceState of the same model, and a
// plain run's checkpoint into Sparsify'd ones, with θ32 equal bit for bit
// and θ16 equal position for position — at 0 %, where every id is stored,
// as well as at 50 % and 90 %.
func TestSparsifiedCheckpointCrossLoads(t *testing.T) {
	build := func(sparsity float64, sparsify bool) (*nn.Model, *prune.Result) {
		m := nn.BuildMLP("xload", []int{16, 32, 8}, tensor.NewRNG(71))
		var layers []prune.Layer
		for _, e := range m.PruneLayers() {
			layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
		}
		pr := prune.MagnitudePerLayer(layers, sparsity)
		if sparsify {
			m = nn.Sparsify(m, pr)
		}
		return m, pr
	}
	// weights lists every FC weight's θ16 as its dense (in, out) matrix.
	weights := func(m *nn.Model) [][]float32 {
		var out [][]float32
		for _, l := range m.Layers {
			if l, ok := l.(*nn.Linear); ok {
				if l.W.CSR != nil {
					out = append(out, l.W.CSR.Dense().Data())
				} else {
					out = append(out, l.W.Value.Data())
				}
			}
		}
		return out
	}
	for _, sparsity := range []float64{0, 0.5, 0.9} {
		for _, fromSparse := range []bool{true, false} {
			t.Run(fmt.Sprintf("%g%%/from-sparse=%v", 100*sparsity, fromSparse), func(t *testing.T) {
				src, pr := build(sparsity, fromSparse)
				ms := NewModelState(src, optim.NewAdam(0.01), SAMO, pr)
				tr := NewTrainer(ms)
				for step := 0; step < 3; step++ {
					x, targets := makeBatch(8, 16, 8, uint64(72+step))
					tr.TrainStep(x, targets)
				}
				var ckpt bytes.Buffer
				if _, err := ms.Save(&ckpt); err != nil {
					t.Fatal(err)
				}
				want := weights(src)

				dst, dpr := build(sparsity, !fromSparse)
				msD := NewModelState(dst, optim.NewAdam(0.01), SAMO, dpr)
				if err := msD.Load(ckpt.Bytes()); err != nil {
					t.Fatalf("ModelState.Load: %v", err)
				}
				for i, st := range ms.states {
					dt := msD.states[i]
					if !slices.Equal(dt.ids(), st.ids()) {
						t.Fatalf("%s's stored ids differ from the saved state's", st.p.Name)
					}
					for j := range st.theta32 {
						if math.Float32bits(dt.theta32[j]) != math.Float32bits(st.theta32[j]) {
							t.Fatalf("θ32 of %s differs at %d: %g, saved %g", st.p.Name, j, dt.theta32[j], st.theta32[j])
						}
					}
				}
				inf, ipr := build(sparsity, !fromSparse)
				is := NewInferenceState(inf, optim.NewAdam(0.01), SAMO, ipr)
				if err := is.Load(ckpt.Bytes()); err != nil {
					t.Fatalf("InferenceState.Load: %v", err)
				}
				for _, got := range [][][]float32{weights(dst), weights(inf)} {
					for i := range want {
						for j := range want[i] {
							if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
								t.Fatalf("θ16 of weight %d differs at %d: %g, saved %g", i, j, got[i][j], want[i][j])
							}
						}
					}
				}
			})
		}
	}
}
