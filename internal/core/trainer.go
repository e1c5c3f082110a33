package core

import (
	"github.com/sparse-dl/samo/internal/nn"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Trainer runs single-process mixed-precision training through a ModelState:
// the serial reference the parallel engine must reproduce, and the workhorse
// of the statistical-efficiency experiment (Figure 4).
//
// The trainer owns a tensor arena and a reusable cache slice, so after the
// first batch every TrainStep runs with zero heap allocations: activations,
// gradients and scratch all come from the arena and are reclaimed wholesale
// when the step completes. Parameter gradients need no clear between steps:
// they live in the state's one-layer scratch, which each layer's capture
// leaves zero.
type Trainer struct {
	State *ModelState

	arena  *tensor.Arena
	caches []any
}

// NewTrainer wraps a ModelState.
func NewTrainer(state *ModelState) *Trainer { return &Trainer{State: state} }

// TrainStep processes one batch: scaled forward/backward with layer-granular
// gradient capture, then the SAMO/mixed-precision optimizer step. It returns
// the (unscaled) mean loss and whether the step was applied.
func (t *Trainer) TrainStep(x *tensor.Tensor, targets []int) (float64, bool) {
	m := t.State.Model()
	if t.arena == nil {
		t.arena = tensor.NewArena()
	}
	if len(t.caches) != len(m.Layers) {
		t.caches = make([]any, len(m.Layers))
	}
	y := m.ForwardArena(t.arena, x, true, t.caches)
	loss, grad := nn.CrossEntropyArena(t.arena, y, targets)
	tensor.Scale(grad, t.State.LossScale())
	m.BackwardArena(t.arena, t.caches, grad, t.State.GradHook())
	applied := t.State.Step()
	t.arena.Reset()
	return loss, applied
}

// EvalLoss computes the mean loss on a batch without training. It runs the
// cache-free inference forward: no backward caches are built and no cache
// pools are touched, so evaluation interleaved with training leaves the
// pools exactly as the training steps expect them.
func (t *Trainer) EvalLoss(x *tensor.Tensor, targets []int) float64 {
	if t.arena == nil {
		t.arena = tensor.NewArena()
	}
	y := t.State.Model().Infer(t.arena, x)
	loss, _ := nn.CrossEntropyArena(t.arena, y, targets)
	t.arena.Reset()
	return loss
}
