package nn

import (
	"github.com/sparse-dl/samo/internal/parallel"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Recompute wraps a layer with activation checkpointing (Chen et al.,
// "Training Deep Nets with Sublinear Memory Cost"), which AxoNN enables for
// large models (§II-E): the forward pass stores only the layer INPUT; the
// backward pass re-runs the forward to rebuild the activation cache before
// differentiating. Memory per in-flight microbatch drops from the layer's
// full working set to one boundary tensor, at the cost of one extra forward
// (the 4/3 recompute factor in Narayanan et al.'s flop formula, which the
// simulator's FwdFraction=0.25 split already assumes).
//
// The wrapped layer must be deterministic given its input and parameters.
// BatchNorm2d in training mode is NOT safe to wrap: the recomputation would
// update its running statistics a second time. Transformer blocks,
// convolutions, LayerNorm and activations all qualify.
type Recompute struct {
	Inner Layer
}

// WithRecompute wraps each layer of a model in Recompute.
func WithRecompute(m *Model) *Model {
	out := &Model{Name: m.Name + "+recompute"}
	for _, l := range m.Layers {
		out.Layers = append(out.Layers, Recompute{Inner: l})
	}
	return out
}

type recomputeCache struct {
	x *tensor.Tensor
}

var recomputeCaches parallel.Pool[recomputeCache]

// Forward runs the inner layer and discards its cache, keeping only the
// input.
func (r Recompute) Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (*tensor.Tensor, any) {
	y, _ := r.Inner.Forward(a, x, false) // eval-mode forward: no cache is built
	if !train {
		return y, nil
	}
	c := recomputeCaches.Get()
	c.x = x
	return y, c
}

// Infer unwraps to the inner layer's inference forward: checkpointing only
// exists to bound backward-pass memory, so forward-only execution sees
// straight through it (and inherits the inner layer's no-aliasing
// contract, e.g. a wrapped Flatten still copies).
func (r Recompute) Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return InferForward(r.Inner, a, x)
}

// Backward re-runs the inner forward in training mode to rebuild the cache,
// then differentiates through it. The recomputed activations come from the
// same arena and are reclaimed at the caller's next Reset.
func (r Recompute) Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor {
	c := cache.(*recomputeCache)
	_, inner := r.Inner.Forward(a, c.x, true)
	c.x = nil
	recomputeCaches.Put(c)
	return r.Inner.Backward(a, inner, gradOut)
}

// Params exposes the inner layer's parameters.
func (r Recompute) Params() []*Param { return r.Inner.Params() }
