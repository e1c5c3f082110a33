package core

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Mode selects how model states are stored.
type Mode int

const (
	// Dense is ordinary mixed-precision training: every state tensor dense.
	Dense Mode = iota
	// SAMO compresses θ32/∇θ16/os to the unpruned coordinates.
	SAMO
)

func (m Mode) String() string {
	if m == SAMO {
		return "SAMO"
	}
	return "Dense"
}

// paramState holds one parameter's model-state tensors, each of the
// shape's stored length (see shape.go).
//
// Storage-width note: gradients and parameters that are logically fp16
// (∇θ16, θ16) hold values rounded onto the fp16 grid. Element values are
// bit-faithful to half precision (including ±Inf on overflow); the Go slices
// are float32 for kernel uniformity, and the memory ledger accounts them at
// their logical 2-byte width, exactly as MemoryBreakdown specifies.
type paramState struct {
	*shape

	theta32 []float32 // master weights (compressed under SAMO)
	grad16  []float32 // fp16-grid scaled gradients, captured layer by layer
}

// ModelState implements mixed-precision training state management with or
// without SAMO. It owns θ32 and ∇θ16 and drives the optimizer; the model's
// nn.Param.Value tensors play the role of dense θ16 (values kept on the fp16
// grid). There is no stored ∇θ32: for the length of an applied step, the
// up-scale writes the fp32 gradient into ∇θ16's float32 slots. Nor is there
// a model-sized dense gradient: every nn.Param.Grad is a view into one
// scratch the size of the largest layer (see borrowGrads), so a backward
// over the model must run with GradHook.
type ModelState struct {
	Mode   Mode
	Scaler *optim.LossScaler
	// ClipNorm, when positive, applies global gradient-norm clipping before
	// the optimizer step (Brown et al.'s recipe uses 1.0).
	ClipNorm float64

	model    *nn.Model
	opt      optim.Optimizer
	shapes   []*shape // states[i].shape, for the code InferenceState shares
	states   []*paramState
	byParam  map[*nn.Param]*paramState
	overflow bool
	steps    int
	skipped  int

	// Steady-state scratch, built once so Step/GradHook do not allocate per
	// call.
	hook        nn.GradHook
	layerParams map[nn.Layer][]*nn.Param
	upscale     upscaleJob

	// grad is the ∇θ16 slab: every paramState.grad16 aliases one segment of
	// it, back to back in state (Params) order, so gradient capture writes
	// straight into the data-parallel reduce payload. A prune event slides
	// the segments left inside it (compactGrad); it is never reallocated.
	grad []float32
}

// NewModelState builds the state manager. For SAMO mode, pr must hold the
// pruning result; its masks are applied to the parameters immediately
// (pruned weights are set to zero in the dense θ16, as the paper requires).
// For Dense mode, pr may be nil (no pruning) or non-nil (pruned-but-dense
// storage — the masked-dense reference SAMO must match numerically).
func NewModelState(model *nn.Model, opt optim.Optimizer, mode Mode, pr *prune.Result) *ModelState {
	ms := &ModelState{
		Mode:    mode,
		Scaler:  optim.NewLossScaler(),
		model:   model,
		opt:     opt,
		shapes:  shapesOf(model, mode, pr),
		byParam: make(map[*nn.Param]*paramState),
	}
	total := 0
	for _, sh := range ms.shapes {
		total += sh.stored()
	}
	ms.grad = make([]float32, total)
	off := 0
	for _, sh := range ms.shapes {
		n := sh.stored()
		st := &paramState{shape: sh, theta32: make([]float32, n), grad16: ms.grad[off : off+n : off+n]}
		off += n
		sh.gather(st.theta32)
		ms.states = append(ms.states, st)
		ms.byParam[sh.p] = st
	}
	ms.borrowGrads()
	ms.hook = nn.GradHook{Capture: func(layer nn.Layer) {
		for _, p := range ms.layerParams[layer] {
			st, ok := ms.byParam[p]
			if !ok {
				panic(fmt.Sprintf("core: gradient for unregistered parameter %s", p.Name))
			}
			st.capture(st.grad16)
		}
	}}
	return ms
}

// borrowGrads records each layer's parameters and re-points every
// p.Grad into one scratch sized to the largest layer, each layer's views
// from offset 0. The layers take turns: a layer's backward accumulates into
// views that its capture leaves zero before the next layer's backward runs,
// so one layer's dense gradients are all that ever exist (§III-C) and the
// model's own accumulators become garbage. A CSR weight is sized at its
// construction-time NNZ, which only shrinks.
func (ms *ModelState) borrowGrads() {
	ms.layerParams = make(map[nn.Layer][]*nn.Param, len(ms.model.Layers))
	most := 0
	for _, l := range ms.model.Layers {
		ps := l.Params()
		ms.layerParams[l] = ps
		n := 0
		for _, p := range ps {
			n += p.Size()
		}
		most = max(most, n)
	}
	scratch := make([]float32, most)
	for _, l := range ms.model.Layers {
		off := 0
		for _, p := range ms.layerParams[l] {
			n := p.Size()
			p.Grad = tensor.FromSlice(scratch[off:off+n:off+n], p.Value.Shape()...)
			off += n
		}
	}
}

// LossScale returns the current dynamic loss scale to multiply into the
// loss gradient before backward.
func (ms *ModelState) LossScale() float32 { return float32(ms.Scaler.Scale) }

// GradHook returns the backward-pass hook that captures (and under SAMO,
// compresses) each layer's gradients the moment that layer's backward
// finishes — §III-C's layer-granular compression. Capture leaves the layer's
// dense gradient views zero for the next layer's backward, which reuses the
// same bytes, so whole-model dense gradients never coexist. A backward over
// the model must therefore run this hook (or one that calls its Capture)
// after every layer. It is built once at construction, with each layer's
// parameter list, so fetching and running it allocates nothing.
func (ms *ModelState) GradHook() nn.GradHook { return ms.hook }

// ReduceBuffer exposes the captured fp16 gradient payload for the
// data-parallel all-reduce: the ∇θ16 slab, every parameter's segment back to
// back in state order. Under SAMO it holds the compressed vectors — the
// paper's collective-communication optimization: message size drops from 2φ
// to 2fφ bytes with no gather copy. The slice is owned by the state; a prune
// event shortens it, so fetch it again after one.
func (ms *ModelState) ReduceBuffer() []float32 { return ms.grad }

// ReduceBucket is a view of the all-reduce payload, kept for callers that
// walk ReduceBuckets.
type ReduceBucket struct {
	Data []float32
}

// ReduceBuckets returns the payload as a one-entry list: the whole
// ReduceBuffer slab.
func (ms *ModelState) ReduceBuckets() []ReduceBucket { return []ReduceBucket{{Data: ms.grad}} }

// Overflow scans the captured fp16 gradients for Inf/NaN — the per-step
// overflow check behind dynamic loss scaling. It walks the ∇θ16 slab, which
// holds every gradient vector back to back, so the scan is one long sweep
// chunked on the worker pool with an atomic early exit
// (tensor.HasNonFiniteSlice) rather than one call per parameter; it
// allocates nothing, preserving the fp16 train-step zero-alloc contract. In
// distributed training every rank must agree on the verdict (or their loss
// scales and parameters diverge), so the engine reduces this flag globally
// before calling StepGiven.
func (ms *ModelState) Overflow() bool { return tensor.HasNonFiniteSlice(ms.grad) }

// Step runs the mixed-precision optimizer step (§III-C):
//
//  1. overflow check on ∇θ16 (dynamic loss scaling);
//  2. upscale: ∇θ16 / scale, computed in place on the compressed vectors —
//     the paper's ∇θ32, held in ∇θ16's own storage;
//  3. optimizer on θ32 and that up-scaled gradient — compressed vectors,
//     dense kernels;
//  4. down-cast: θ16 = fp16(θ32), EXPANDED into the dense tensor.
//
// It returns true if the step was applied, false if skipped on overflow.
// Gradient accumulators are cleared either way.
func (ms *ModelState) Step() bool { return ms.StepGiven(ms.Overflow()) }

// StepGiven is Step with an externally supplied (e.g. globally reduced)
// overflow verdict. Every pass over model state is one streaming sweep,
// chunked on the worker pool from parallel.StreamGrain elements up, and no
// gradient buffer besides ∇θ16 exists. On an AVX2 host the dense sweeps —
// the up-scale (tensor.ScaleSlice), Adam and the dense down-cast here, the
// overflow scan and the dense capture before them — run vector kernels over
// each chunk's multiple-of-8 body, bit-identical to the Go loops that stay
// as every other host's path; the SAMO scatter and gather are Go loops
// everywhere:
//
//   - up-scale in place: ∇θ16[i] ·= 1/scale, over the slab;
//   - optional global-norm clip over the slab, which is state order (serial:
//     its summation order is a numerics contract);
//   - per parameter, the optimizer on θ32 and its up-scaled ∇θ16 segment,
//     then the down-cast (shape.expand): dense parameters round θ32 into
//     θ16; SAMO-compressed ones round and scatter straight to θ16's unpruned
//     coordinates, with no compressed half copy in between and no zero-fill
//     of the dense tensor. The same chunk that rounds zeroes the ∇θ16
//     segment, so the next capture starts from zero (a skipped step zeroes
//     the slab instead).
func (ms *ModelState) StepGiven(overflow bool) bool {
	// Snapshot the scale the in-flight gradients were produced under:
	// Scaler.Update may grow it for the NEXT step.
	scaleUsed := ms.Scaler.Scale
	if !ms.Scaler.Update(overflow) {
		ms.skipped++
		clear(ms.grad)
		return false
	}
	ms.upscale.inv = float32(1 / scaleUsed)
	ms.upscale.grad = ms.grad
	parallel.Run(len(ms.grad), parallel.StreamGrain, &ms.upscale, upscaleChunk)
	if ms.ClipNorm > 0 {
		optim.ClipGradNorm([][]float32{ms.grad}, ms.ClipNorm)
	}
	for _, st := range ms.states {
		ms.opt.Step(st.p.Name, st.theta32, st.grad16)
		st.expand(st.theta32, st.grad16)
	}
	ms.steps++
	return true
}

// upscaleJob carries the up-scale sweep to the worker pool. A ModelState
// runs one sweep at a time, so it owns its job rather than pooling them.
type upscaleJob struct {
	grad []float32
	inv  float32
}

func upscaleChunk(ctx any, lo, hi int) {
	j := ctx.(*upscaleJob)
	tensor.ScaleSlice(j.grad[lo:hi], j.inv)
}

// SkippedSteps returns how many steps were skipped due to fp16 overflow.
func (ms *ModelState) SkippedSteps() int { return ms.skipped }

// Memory returns the byte-accurate ledger of this state's storage at its
// logical widths. For SAMO it equals SAMOBreakdown(φ, fφ) plus the dense
// remainder for unprunable parameters, less the §III-D model's 4 B of ∇θ32
// per stored element (see ModelState): the Grad32 line is 0. The equivalence
// is asserted in tests.
func (ms *ModelState) Memory() MemoryBreakdown {
	var b MemoryBreakdown
	for _, st := range ms.states {
		stored := int64(len(st.theta32))
		b.Theta16 += BytesTheta16 * int64(st.p.Size())
		b.Grad16 += BytesGrad16 * stored
		b.Theta32 += BytesTheta32 * stored
		b.OptStates += int64(ms.opt.StateBytesPerParam()) * stored
		// A CSR weight's structure rides with the parameter it indexes.
		index, tempCopy := st.samoBytes()
		b.Index += index + st.csrBytes()
		b.TempCopy += tempCopy
	}
	return b
}

// Fingerprint hashes the state's immutable structure (see fingerprint); a
// checkpoint loads only into a matching (superset) pattern, with the state
// shrunk on load.
func (ms *ModelState) Fingerprint() uint64 {
	return fingerprint(ms.Mode, ms.opt.StateBytesPerParam(), ms.shapes)
}

// Model returns the managed model.
func (ms *ModelState) Model() *nn.Model { return ms.model }
