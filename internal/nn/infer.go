package nn

import "github.com/sparse-dl/samo/internal/tensor"

// Forward-only execution mode. Forward with train=false is contractually
// cache-free — it returns a nil cache and touches none of the per-type
// cache pools that Backward recycles — so an inference pass leaves the
// pools exactly as it found them and a serving process can run forwards
// forever without growing (or draining) training-side free lists.
//
// InferLayer is the optional extension a layer implements when its
// inference forward differs from Forward(train=false) in more than the
// returned cache — LayerNorm skips the x̂ tensor entirely, Recompute
// unwraps. Everything else is served by the generic fallback.

// InferLayer is a Layer with a dedicated cache-free inference forward.
//
// Contract: Infer must be bitwise-identical to Forward(train=false) on the
// same input, must touch no cache pools, and must return a tensor that does
// NOT alias x's storage (own data from a, or layer-owned). The no-aliasing
// rule is what lets the windowed runner below reclaim the producing arena
// of x one layer later.
type InferLayer interface {
	Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor
}

// InferForward runs one layer forward-only: the layer's Infer method when
// implemented, otherwise Forward with train=false, discarding the (nil)
// cache.
func InferForward(l Layer, a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if il, ok := l.(InferLayer); ok {
		return il.Infer(a, x)
	}
	y, _ := l.Forward(a, x, false)
	return y
}

// Infer runs the whole model forward-only on a single arena — the
// cache-free replacement for ForwardArena(a, x, false, caches) that needs
// no cache slice. Tensors remain valid until the caller's next Reset.
func (m *Model) Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers {
		x = InferForward(l, a, x)
	}
	return x
}

// InferWindowed runs the model forward-only across two arenas in
// alternation: layer i draws its scratch and output from arenas[i%2], and
// the opposite arena is reset as soon as layer i completes — the moment
// layer i-1's activation (layer i's input) is dead. Peak activation
// memory is therefore the two largest consecutive layer working sets, not
// the whole forward pass — there is no backward pass coming to read
// step-lifetime caches, so nothing else needs to survive.
//
// Safe because no layer's inference forward returns a view of its input
// (InferLayer's contract, which every eval Forward also keeps). Both arenas
// are reset on entry — x must not be owned by either — and the returned
// tensor lives in one of them: it is valid until either arena's next use.
func (m *Model) InferWindowed(a, b *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	arenas := [2]*tensor.Arena{a, b}
	a.Reset()
	b.Reset()
	for i, l := range m.Layers {
		x = InferForward(l, arenas[i&1], x)
		arenas[(i+1)&1].Reset()
	}
	return x
}
