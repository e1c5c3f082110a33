package core

import (
	"fmt"
	"io"

	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/optim"
	"github.com/sparse-dl/samo/internal/prune"
	"github.com/sparse-dl/samo/internal/tensor"
)

// InferenceState is the forward-only counterpart of ModelState: it holds a
// model whose weights are fp16-grid dense tensors (or CSR values, for
// Sparsify'd Linears) and NOTHING else — no gradient accumulators, no θ32
// master weights, no optimizer states, no reduce buffers. Construction
// releases every Param.Grad tensor, so the resident footprint is the θ16
// line of the §III-D ledger alone: 2φ plus any CSR weight's structure
// bytes.
//
// The state is constructed with the same (model, optimizer, mode, pruning)
// identity a training run would use, so Fingerprint matches the ModelState
// that produced a checkpoint and ckpt.Manager.Load accepts training
// checkpoints directly: θ32 is parsed, quantized onto the fp16 grid and
// expanded into the dense weights — the optimizer-state vectors are
// validated and discarded. The model handed in must not be trained
// afterwards (its gradient tensors are gone; Backward would panic).
type InferenceState struct {
	Mode Mode

	model    *nn.Model
	optBytes int // optimizer footprint of the checkpoints this state accepts
	shapes   []*shape
}

// NewInferenceState builds a forward-only state over model. opt identifies
// the optimizer of the training runs whose checkpoints this state should
// accept (only its per-parameter state footprint is read; no optimizer is
// retained). mode and pr must match the training configuration exactly as
// for NewModelState: pruning masks are applied to the dense weights and the
// initial parameters are fp16-quantized, so a freshly built inference model
// is bitwise-identical to a freshly built training model before any steps.
func NewInferenceState(model *nn.Model, opt optim.Optimizer, mode Mode, pr *prune.Result) *InferenceState {
	s := &InferenceState{Mode: mode, model: model, optBytes: opt.StateBytesPerParam(),
		shapes: shapesOf(model, mode, pr)}
	// Forward-only: the gradient accumulators will never be written.
	// Release them so the footprint shrinks from 4φ (Value+Grad fp32
	// slices) to the θ16 line alone.
	for _, p := range model.Params() {
		p.Grad = nil
	}
	return s
}

// Model returns the managed model.
func (s *InferenceState) Model() *nn.Model { return s.model }

// Memory returns the forward-only ledger: dense θ16 at its logical 2-byte
// width plus the CSR weights' structure (row pointers, column indices). Every
// training-only component — gradients, master weights, optimizer states,
// the down-cast temp copy — is zero by construction.
func (s *InferenceState) Memory() MemoryBreakdown {
	var b MemoryBreakdown
	for _, sh := range s.shapes {
		b.Theta16 += BytesTheta16 * int64(sh.p.Size())
		b.Index += sh.csrBytes()
	}
	return b
}

// Fingerprint hashes the same structural identity as ModelState.Fingerprint,
// so a training checkpoint's manifest fingerprint matches and ckpt.Manager
// loads it into inference mode with the same up-front refusal semantics, at
// any point of a gradual pruning schedule.
func (s *InferenceState) Fingerprint() uint64 {
	return fingerprint(s.Mode, s.optBytes, s.shapes)
}

// Save is unsupported: an InferenceState holds no θ32 or optimizer state to
// serialize. It exists so the type satisfies ckpt.State for loading.
func (s *InferenceState) Save(io.Writer) (int64, error) {
	return 0, fmt.Errorf("core: InferenceState is read-only (no θ32/optimizer state to save)")
}

// Load restores the weights from a training checkpoint written by
// ModelState.Save: the full payload is CRC-checked and parsed against this
// state's structure first (transactional, like ModelState.Load), then θ32
// is quantized onto the fp16 grid and expanded into the dense weights.
// Scaler state, step counts and optimizer vectors are validated but
// discarded — inference has no consumer for them.
func (s *InferenceState) Load(raw []byte) error {
	stg, err := parseSnapshot(raw, s.Mode, s.optBytes, s.shapes)
	if err != nil {
		return err
	}
	// Commit: shrink-on-load where the checkpoint's pattern is a strict
	// subset, then θ32 -> fp16 grid -> dense θ16 (the optimizer down-cast
	// path, without an optimizer).
	for i, sh := range s.shapes {
		sp := &stg.params[i]
		if sp.keep != nil {
			sh.shrink(sp.keep)
		}
		sh.expand(sp.theta32, nil)
	}
	return nil
}

// Inferencer runs steady-state forward passes over an InferenceState with
// activation memory sized to the forward working set: the model executes
// through nn.Model.InferWindowed over two ping-ponged arenas, so an
// activation is reclaimed one layer after it is produced instead of
// surviving to the end of the pass. After warm-up a Forward performs zero
// heap allocations.
//
// An Inferencer is NOT safe for concurrent use (its arenas are not); the
// serving engine gives each batching loop its own.
type Inferencer struct {
	state *InferenceState
	a, b  *tensor.Arena
}

// NewInferencer wraps an InferenceState.
func NewInferencer(st *InferenceState) *Inferencer {
	return &Inferencer{state: st, a: tensor.NewArena(), b: tensor.NewArena()}
}

// Forward runs one forward-only pass. The returned tensor is owned by the
// Inferencer's arenas and is valid only until the next Forward call — copy
// out anything that must survive (the serving engine copies each request's
// rows into its response buffer).
func (inf *Inferencer) Forward(x *tensor.Tensor) *tensor.Tensor {
	return inf.state.model.InferWindowed(inf.a, inf.b, x)
}

// ArenaBytes returns the activation bytes the two arenas retain across
// Forward calls (tensor.Arena.Bytes): one working set per distinct input
// height ever seen.
func (inf *Inferencer) ArenaBytes() int64 { return inf.a.Bytes() + inf.b.Bytes() }
