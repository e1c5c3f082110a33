package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"unsafe"

	"github.com/sparse-dl/samo/internal/fp16"
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// The state-pass golden. refCapture / refOverflow / refStepGiven are the
// capture, overflow-scan, up-scale and down-cast loops as they stood before
// they became fused fp16 kernels: one scalar Round per element, a separate
// clearing sweep, a compressed half copy expanded with a zero-fill, and a
// ∇θ32 vector of its own per parameter and step beside ∇θ16. They run on a
// ModelState of their own, in lockstep with states driven through the real
// GradHook / Step at several worker counts, fed the same gradients.

func refCapture(ms *ModelState, p *nn.Param) {
	st := ms.byParam[p]
	g := p.Grad.Data()
	switch {
	case st.compressed:
		for i, id := range st.ix.IDs() {
			st.grad16[i] = fp16.Round(st.grad16[i] + g[id])
		}
	case st.ix != nil:
		for _, id := range st.ix.IDs() {
			st.grad16[id] = fp16.Round(st.grad16[id] + g[id])
		}
	default:
		for i := range g {
			st.grad16[i] = fp16.Round(st.grad16[i] + g[i])
		}
	}
	p.Grad.Zero()
}

func refOverflow(ms *ModelState) bool {
	for _, st := range ms.states {
		for _, g := range st.grad16 {
			if math.IsInf(float64(g), 0) || math.IsNaN(float64(g)) {
				return true
			}
		}
	}
	return false
}

// refStepGiven also returns the pre-clip norm of an applied step (0 when
// ClipNorm is off).
func refStepGiven(ms *ModelState, overflow bool) (applied bool, norm float64) {
	scaleUsed := ms.Scaler.Scale
	if !ms.Scaler.Update(overflow) {
		ms.skipped++
		for _, st := range ms.states {
			clear(st.grad16)
		}
		return false, 0
	}
	invScale := float32(1 / scaleUsed)
	grad32 := make([][]float32, len(ms.states))
	for i, st := range ms.states {
		grad32[i] = make([]float32, len(st.grad16))
		for j, g := range st.grad16 {
			grad32[i][j] = g * invScale
		}
	}
	if ms.ClipNorm > 0 {
		norm = optim.ClipGradNorm(grad32, ms.ClipNorm)
	}
	for i, st := range ms.states {
		ms.opt.Step(st.p.Name, st.theta32, grad32[i])
		if st.compressed {
			tmp16 := make([]float32, len(st.theta32))
			for i, v := range st.theta32 {
				tmp16[i] = fp16.Round(v)
			}
			st.ix.Expand(st.p.Value.Data(), tmp16)
		} else {
			dst := st.p.Value.Data()
			for i, v := range st.theta32 {
				dst[i] = fp16.Round(v)
			}
		}
		clear(st.grad16)
	}
	ms.steps++
	return true, norm
}

// statePassDims gives the hidden layer 448² = 200 704 weights: 13 grains
// dense, and still two at 90 % sparsity, so every kernel runs chunked.
var statePassDims = []int{16, 448, 448, 4}

// statePassPruning is the 90 % magnitude pruning of the MLP below, computed
// once: every state is built over the same initial weights, and a state
// clones the indices it may shrink.
var statePassPruning *prune.Result

// newStatePassState builds one of the four parameter shapes over an
// identically initialised MLP. Only dense states have no prune targets.
func newStatePassState(shape string, opt optim.Optimizer) *ModelState {
	m := nn.BuildMLP("sp", statePassDims, tensor.NewRNG(77))
	if shape == "dense" {
		return NewModelState(m, opt, Dense, nil)
	}
	if statePassPruning == nil {
		var layers []prune.Layer
		for _, e := range m.PruneLayers() {
			layers = append(layers, prune.Layer{Name: e.Name, Values: e.Param.Value.Data()})
		}
		statePassPruning = prune.MagnitudePerLayer(layers, 0.9)
	}
	pr := statePassPruning
	switch shape {
	case "masked-dense":
		return NewModelState(m, opt, Dense, pr)
	case "samo90":
		return NewModelState(m, opt, SAMO, pr)
	default: // "sparselinear": the pattern lives in the layer, state vectors are its CSR values
		return NewModelState(nn.Sparsify(m, pr), opt, SAMO, pr)
	}
}

// fillGrad writes a deterministic stand-in for a loss-scaled gradient: mostly
// normal-range values, with exact zeros and values under the half subnormal
// spacing mixed in so every range of the rounding is on the path.
func fillGrad(g []float32, seed uint32) {
	x := seed*2654435761 + 12345
	for i := range g {
		x = x*1664525 + 1013904223
		v := (float32(x>>8)/(1<<24) - 0.5) * 16
		switch x >> 29 {
		case 0:
			v = 0
		case 1:
			v *= 1e-8
		}
		g[i] = v
	}
}

// f32bytes views a vector's storage as bytes, so sameVec can compare whole
// vectors bit for bit in one call (an element loop over millions of values
// is what dominates this file's run time under the race detector).
func f32bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func sameVec(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	if bytes.Equal(f32bytes(got), f32bytes(want)) {
		return
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %g (%#08x), reference %g (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// sameCaptured compares what gradient capture writes, bit for bit: the ∇θ16
// slabs and the drained dense accumulators.
func sameCaptured(t *testing.T, when string, got, ref *ModelState) {
	t.Helper()
	for i, st := range got.states {
		sameVec(t, when+" "+st.p.Name+" ∇θ", st.p.Grad.Data(), ref.states[i].p.Grad.Data())
	}
	sameVec(t, when+" ∇θ16 slab", got.grad, ref.grad)
}

// sameState compares everything a state pass writes, bit for bit.
func sameState(t *testing.T, when string, got, ref *ModelState) {
	t.Helper()
	sameCaptured(t, when, got, ref)
	if got.Scaler.Scale != ref.Scaler.Scale || got.steps != ref.steps || got.skipped != ref.skipped {
		t.Fatalf("%s: scale/steps/skipped %g/%d/%d, reference %g/%d/%d", when,
			got.Scaler.Scale, got.steps, got.skipped, ref.Scaler.Scale, ref.steps, ref.skipped)
	}
	for i, st := range got.states {
		rs := ref.states[i]
		name := when + " " + st.p.Name
		sameVec(t, name+" θ16", st.p.Value.Data(), rs.p.Value.Data())
		sameVec(t, name+" θ32", st.theta32, rs.theta32)
		gotOpt, refOpt := got.opt.States(st.p.Name), ref.opt.States(rs.p.Name)
		if len(gotOpt) != len(refOpt) {
			t.Fatalf("%s: %d optimizer vectors, reference %d", name, len(gotOpt), len(refOpt))
		}
		for k := range gotOpt {
			sameVec(t, fmt.Sprintf("%s opt[%d]", name, k), gotOpt[k], refOpt[k])
		}
	}
}

func TestStatePassMatchesReferenceLoops(t *testing.T) {
	opts := map[string]func() optim.Optimizer{
		"adam":  func() optim.Optimizer { return optim.NewAdam(1e-2) },
		"adamw": func() optim.Optimizer { return optim.NewAdamW(1e-2, 0.01) },
	}
	workerCounts := []int{1, 2, 3, 4, 8}
	if testing.Short() {
		workerCounts = []int{1, 4}
	}
	const (
		steps        = 4
		overflowStep = 1 // an Inf gradient: the step is skipped and the scale halves
		pruneStep    = 2 // 90 % → 95 % after this step
	)
	sched := prune.Schedule{Initial: 0.9, Final: 0.95, BeginStep: pruneStep, EndStep: pruneStep, Frequency: 1}
	// clip0 runs unclipped. clip1 clips below every pre-clip norm the
	// gradients below produce (0.016–0.099), so each applied step scales
	// every gradient; the reference checks that it did.
	clips := []float64{0, 0.01}

	for _, shape := range []string{"dense", "masked-dense", "samo90", "sparselinear"} {
		for optName, newOpt := range opts {
			for ci, clip := range clips {
				t.Run(fmt.Sprintf("%s/%s/clip%d", shape, optName, ci), func(t *testing.T) {
					defer tensor.SetWorkers(tensor.SetWorkers(1))
					// states[0] is the reference; states[1+i] runs at workerCounts[i].
					states := make([]*ModelState, 1+len(workerCounts))
					pruners := make([]*GradualPruner, len(states))
					for i := range states {
						states[i] = newStatePassState(shape, newOpt())
						states[i].ClipNorm = clip
						var err error
						if pruners[i], err = NewGradualPruner(states[i], sched); err != nil {
							t.Fatal(err)
						}
					}
					ref := states[0]
					workersOf := func(i int) int {
						if i == 0 {
							return 1
						}
						return workerCounts[i-1]
					}
					var buf []float32
					for step := 0; step < steps; step++ {
						for mb := 0; mb < 3; mb++ {
							layers := ref.Model().Layers
							for li := len(layers) - 1; li >= 0; li-- {
								for pi, p := range layers[li].Params() {
									if cap(buf) < p.Size() {
										buf = make([]float32, p.Size())
									}
									buf = buf[:p.Size()]
									fillGrad(buf, uint32(step*1000+mb*100+li*10+pi))
									if step == overflowStep && mb == 1 && li == 0 && pi == 0 {
										at := len(buf) / 2
										if ix := ref.byParam[p].ix; ix != nil {
											at = int(ix.IDs()[ix.NNZ()/2]) // a coordinate capture reads
										}
										buf[at] = float32(math.Inf(1))
									}
									for _, ms := range states {
										copy(ms.Model().Layers[li].Params()[pi].Grad.Data(), buf)
									}
								}
								for i, ms := range states {
									tensor.SetWorkers(workersOf(i))
									if i == 0 {
										for _, p := range layers[li].Params() {
											refCapture(ms, p)
										}
									} else {
										ms.GradHook().Capture(ms.Model().Layers[li])
									}
								}
							}
							for i, ms := range states[1:] {
								sameCaptured(t, fmt.Sprintf("step %d microbatch %d workers %d", step, mb, workerCounts[i]), ms, ref)
							}
						}
						applied, norm := refStepGiven(ref, refOverflow(ref))
						if applied == (step == overflowStep) {
							t.Fatalf("step %d: reference applied = %v", step, applied)
						}
						if applied && clip > 0 && norm <= clip {
							t.Fatalf("step %d: pre-clip norm %g does not exceed ClipNorm %g, so nothing was clipped", step, norm, clip)
						}
						pruned := pruners[0].MaybePrune(step)
						if want := step == pruneStep && shape != "dense"; pruned != want {
							t.Fatalf("step %d: reference pruned = %v, want %v", step, pruned, want)
						}
						for i, ms := range states[1:] {
							tensor.SetWorkers(workerCounts[i])
							if got := ms.Step(); got != applied {
								t.Fatalf("step %d workers %d: applied = %v, reference %v", step, workerCounts[i], got, applied)
							}
							pruners[1+i].MaybePrune(step)
							sameState(t, fmt.Sprintf("after step %d workers %d", step, workerCounts[i]), ms, ref)
							// The scatter down-cast never zero-fills: off-pattern
							// θ16 must be zero because nothing ever wrote it.
							for _, st := range ms.states {
								if !st.compressed {
									continue
								}
								mask := st.ix.Mask()
								for j, v := range st.p.Value.Data() {
									if !mask.Get(j) && math.Float32bits(v) != 0 {
										t.Fatalf("after step %d workers %d: %s θ16[%d] = %g off the pattern",
											step, workerCounts[i], st.p.Name, j, v)
									}
								}
							}
						}
					}
					if ref.skipped != 1 || ref.steps != steps-1 {
						t.Fatalf("reference ran %d steps, skipped %d", ref.steps, ref.skipped)
					}
				})
			}
		}
	}
}

// TestStatePassZeroAlloc pins capture + Step at zero allocations on a state
// large enough that every sweep is dispatched to the pool in chunks (the
// train-step pins in alloc_test.go use models far below one grain).
func TestStatePassZeroAlloc(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(4))
	for _, shape := range []string{"dense", "masked-dense", "samo90", "sparselinear"} {
		ms := newStatePassState(shape, optim.NewAdamW(1e-2, 0.01))
		pass := func() {
			for _, p := range ms.Model().Params() {
				fillGrad(p.Grad.Data(), 7)
			}
			for _, l := range ms.Model().Layers {
				ms.GradHook().Capture(l)
			}
			ms.Step()
		}
		pass() // optimizer state, layer→params memo, worker pool
		if a := testing.AllocsPerRun(10, pass); a != 0 {
			t.Errorf("%s: capture + Step allocates %.1f per pass, want 0", shape, a)
		}
	}
}

// BenchmarkStatePass times the whole per-step state pass — gradient capture
// of every layer, then Step (overflow scan, up-scale, optimizer, down-cast)
// — on the bench MLP's state (256-768-768-768-32, the mlp_dp2_tcp_dense
// model) dense and at SAMO 90 %, at the default worker count and, in the
// _w1 forms, at one worker — the engine's per-rank setting. ns/elem is per
// stored state element.
func BenchmarkStatePass(b *testing.B) {
	for _, c := range []struct {
		mode    Mode
		workers int // 0: the default
	}{{Dense, 0}, {SAMO, 0}, {Dense, 1}, {SAMO, 1}} {
		name, mode := c.mode.String(), c.mode
		if c.workers == 1 {
			name += "_w1"
		}
		b.Run(name, func(b *testing.B) {
			defer tensor.SetWorkers(tensor.SetWorkers(c.workers))
			m := nn.BuildMLP("bench", []int{256, 768, 768, 768, 32}, tensor.NewRNG(1))
			ms := stateFor(m, SAMO, 0.9) // Adam 1e-3, like the workload
			if mode == Dense {
				ms = NewModelState(m, optim.NewAdam(1e-3), Dense, nil)
			}
			grads := make([][]float32, len(m.Params()))
			elems := 0
			for i, p := range m.Params() {
				grads[i] = make([]float32, p.Size())
				fillGrad(grads[i], uint32(i))
				elems += len(ms.byParam[p].theta32)
			}
			b.SetBytes(int64(4 * elems))
			b.ReportAllocs()
			for i := -1; i < b.N; i++ { // pass -1 warms optimizer state and pools, untimed
				b.StopTimer()
				for k, p := range m.Params() {
					copy(p.Grad.Data(), grads[k]) // what backward leaves behind
				}
				if i == 0 {
					b.ResetTimer()
				}
				b.StartTimer()
				for li := len(m.Layers) - 1; li >= 0; li-- {
					ms.GradHook().Capture(m.Layers[li])
				}
				ms.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
		})
	}
}

// TestGPTStateBitsPinned trains a small SAMO GPT with gradient clipping for
// a few steps and compares a hash of its checkpoint (θ32, Adam's moments,
// the loss scale) and of every step's loss to constants recorded on an amd64
// host with FMA, at several worker counts. Attention's softmax, GELU's tanh
// and the cross-entropy all run math.Exp, which takes an FMA path on such
// hosts. The other goldens compare two states built in one process, so only
// a recorded constant shows whether a host without that path
// (GODEBUG=cpu.fma=off stands in for one) lands on the same bits.
func TestGPTStateBitsPinned(t *testing.T) {
	const (
		wantState = 0x835cfbf31990ca14
		wantLoss  = 0xd74cd8289cc1ecdf
		steps     = 8
	)
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		cfg := nn.GPTConfig{Name: "pinned-gpt", Layers: 2, Hidden: 16, Heads: 2,
			Seq: 8, Vocab: 32, BatchSize: 2}
		ms := stateFor(nn.BuildGPT(cfg, tensor.NewRNG(41)), SAMO, 0.5)
		ms.ClipNorm = 1 // the pre-clip norms here are ≈ 10–17
		tr := NewTrainer(ms)
		tokens := make([]int, 2*cfg.Seq)
		targets := make([]int, 2*cfg.Seq)
		drng := tensor.NewRNG(42)
		lossHash := fnv.New64a()
		for step := 0; step < steps; step++ {
			for i := range tokens {
				tokens[i] = int(drng.Uint64() % uint64(cfg.Vocab))
				targets[i] = int(drng.Uint64() % uint64(cfg.Vocab))
			}
			loss, _ := tr.TrainStep(nn.TokensToTensor(tokens), targets)
			binary.Write(lossHash, binary.LittleEndian, math.Float64bits(loss))
		}
		if ms.steps < steps/2 {
			t.Fatalf("%d workers: only %d of %d steps applied", workers, ms.steps, steps)
		}
		stateHash := fnv.New64a()
		if _, err := ms.Save(stateHash); err != nil {
			t.Fatal(err)
		}
		if got := stateHash.Sum64(); got != wantState {
			t.Errorf("%d workers: state hash %#x, recorded %#x", workers, got, uint64(wantState))
		}
		if got := lossHash.Sum64(); got != wantLoss {
			t.Errorf("%d workers: loss hash %#x, recorded %#x", workers, got, uint64(wantLoss))
		}
	}
}
