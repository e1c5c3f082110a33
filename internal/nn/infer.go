package nn

import "github.com/sparse-dl/samo/internal/tensor"

// Infer runs the whole model forward-only on a single arena: each layer's
// Forward with train=false, which builds no cache. Tensors remain valid
// until the caller's next Reset.
func (m *Model) Infer(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers {
		x, _ = l.Forward(a, x, false)
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
// Safe because no layer's eval forward returns a view of its input (Layer's
// contract). Both arenas are reset on entry — x must not be owned by either
// — and the returned tensor lives in one of them: it is valid until either
// arena's next use.
func (m *Model) InferWindowed(a, b *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	arenas := [2]*tensor.Arena{a, b}
	a.Reset()
	b.Reset()
	for i, l := range m.Layers {
		x, _ = l.Forward(arenas[i&1], x, false)
		arenas[(i+1)&1].Reset()
	}
	return x
}
