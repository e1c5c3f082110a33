package core

import (
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// buildSparseExecSetup prunes an MLP and replaces its Linears with
// first-class SparseLinear layers in the given execution mode,
// wrapped in a SAMO-mode ModelState — the sparse-execution training stack
// end to end.
func buildSparseExecSetup(exec nn.ExecMode, sparsity float64, seed uint64) (*nn.Model, *ModelState) {
	rng := tensor.NewRNG(seed)
	m := nn.BuildMLP("smlp", []int{16, 32, 8}, rng)
	var layers []prune.Layer
	for _, e := range m.PruneLayers() {
		layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
	}
	pr := prune.MagnitudePerLayer(layers, sparsity)
	sm := nn.Sparsify(m, pr)
	for _, l := range sm.Layers {
		if sl, ok := l.(*nn.SparseLinear); ok {
			sl.Exec = exec
		}
	}
	return sm, NewModelState(sm, optim.NewAdam(0.01), SAMO, pr)
}

// TestSparseExecTrainStepZeroAlloc pins the sparse execution path's perf
// contract: a full pruned-model TrainStep over SparseLinear layers — CSR
// forward, SDDMM weight gradient, transposed-CSR input gradient, rank-1
// weight-vector capture and optimizer step — runs at zero steady-state
// allocations, on both execution paths (the dense fallback materializes its
// masked-dense scratch once, then stays allocation-free).
func TestSparseExecTrainStepZeroAlloc(t *testing.T) {
	t.Setenv("SAMO_GEMM_TUNE", "off") // hermetic: see TestTrainStepZeroAlloc
	for _, exec := range []nn.ExecMode{nn.ExecSparse, nn.ExecDense} {
		_, ms := buildSparseExecSetup(exec, 0.9, 17)
		tr := NewTrainer(ms)
		x, targets := makeBatch(16, 16, 8, 18)
		for i := 0; i < 3; i++ {
			tr.TrainStep(x, targets)
		}
		if a := testing.AllocsPerRun(30, func() { tr.TrainStep(x, targets) }); a != 0 {
			t.Errorf("exec=%d: sparse TrainStep allocates %.1f per step, want 0", exec, a)
		}
	}
}

// TestSparseLinearForwardBackwardZeroAlloc pins the layer in isolation: a
// steady-state forward+backward pair over the arena — including the cached
// transpose's value refresh and, on the dense path, the masked-dense
// re-materialization — allocates nothing. Workers are pinned above one so
// the pooled parallel dispatch (not the inline fallback) is what is pinned.
func TestSparseLinearForwardBackwardZeroAlloc(t *testing.T) {
	t.Setenv("SAMO_GEMM_TUNE", "off")
	defer tensor.SetWorkers(tensor.SetWorkers(4))
	for _, exec := range []nn.ExecMode{nn.ExecSparse, nn.ExecDense} {
		rng := tensor.NewRNG(19)
		dense := nn.NewLinear("fc", 64, 48, rng)
		pr := prune.MagnitudePerLayer(
			[]prune.Layer{{Name: "fc.weight", Values: dense.W.Value.Data()}}, 0.9)
		sl := nn.NewSparseLinear("fc", dense.W.Value, pr.Index("fc.weight"))
		sl.Exec = exec
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
			t.Errorf("exec=%d: SparseLinear forward+backward allocates %.1f per step, want 0", exec, a)
		}
	}
}

// TestSparseExecTrainStepDeterminism pins the acceptance contract on the
// whole pruned-model training step: training is bitwise-identical — loss
// bits and θ32 — at every worker count, with the CSR path pinned and in auto
// mode (a 50%-sparse model, which the density rule runs dense-masked): every
// sparse kernel accumulates in a fixed per-element order and the path is a
// function of the pattern, so neither pool resizing nor timing can perturb
// results.
func TestSparseExecTrainStepDeterminism(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(0))
	for _, tc := range []struct {
		name     string
		exec     nn.ExecMode
		sparsity float64
		workers  []int
	}{
		{"pinned sparse 90%", nn.ExecSparse, 0.9, []int{1, 2, 3, 4, 8, 16}},
		{"auto 50%", nn.ExecAuto, 0.5, []int{1, 4}},
	} {
		var refLoss []float64
		var ref [][]float32
		for _, workers := range tc.workers {
			tensor.SetWorkers(workers)
			_, ms := buildSparseExecSetup(tc.exec, tc.sparsity, 23)
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
// trusts: the same pruned MLP trained through SparseLinear layers and
// through masked-dense Linear layers converges to the same parameters
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
	for _, l := range sm.Layers {
		if sl, ok := l.(*nn.SparseLinear); ok {
			sl.Exec = nn.ExecSparse
		}
	}
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
	// Compare the sparse weight vectors against the masked-dense weights
	// compressed onto the same indices.
	for _, l := range sm.Layers {
		sl, ok := l.(*nn.SparseLinear)
		if !ok {
			continue
		}
		name := sl.Wv.Name
		var denseVal []float32
		for _, p := range msD.Model().Params() {
			if p.Name == name {
				denseVal = p.Value.Data()
			}
		}
		if denseVal == nil {
			t.Fatalf("no masked-dense twin for %s", name)
		}
		ix := pr.Index(name)
		comp := make([]float32, ix.NNZ())
		ix.Compress(comp, denseVal)
		// Scatter the sparse values back through the (in,out) order.
		got := make([]float32, ix.NNZ())
		deq := tensor.Transpose(sl.W.Dense()) // the (in, out) dense weight
		ix.Compress(got, deq.Data())
		for i := range comp {
			if d := math.Abs(float64(comp[i] - got[i])); d > 2e-2 {
				t.Fatalf("%s[%d]: sparse-exec %g vs masked-dense %g", name, i, got[i], comp[i])
			}
		}
	}
}

// TestSparseExecMemoryLedger checks that the ledger sees the sparse layer
// honestly: θ16 itself shrinks to the surviving coordinates (the paper
// keeps θ16 dense only because it computes dense; under sparse execution it
// compresses too) and the CSR structure is accounted as index bytes.
func TestSparseExecMemoryLedger(t *testing.T) {
	sm, ms := buildSparseExecSetup(nn.ExecSparse, 0.9, 31)
	b := ms.Memory()
	var nnz, biases int64
	var meta int64
	for _, l := range sm.Layers {
		if sl, ok := l.(*nn.SparseLinear); ok {
			nnz += int64(sl.W.NNZ())
			biases += int64(sl.B.Value.Len())
			meta += sl.Wv.MetaBytes
		}
	}
	if want := BytesTheta16 * (nnz + biases); b.Theta16 != want {
		t.Errorf("Theta16 = %d, want %d (compressed θ16 + dense biases)", b.Theta16, want)
	}
	if b.Index != meta {
		t.Errorf("Index = %d, want %d (CSR patterns + refresh perm)", b.Index, meta)
	}
}
