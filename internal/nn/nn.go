// Package nn is the neural-network substrate of the SAMO reproduction:
// layers with explicit forward/backward passes, a parameter registry, loss
// functions, builders for runnable MLP and GPT models, and the paper's
// Table I configurations (VGG-19, WideResNet-101 and the GPT-3 family).
//
// Layers are stateless with respect to activations: Forward returns an
// opaque cache that Backward consumes. This is load-bearing for the
// reproduction — AxoNN's pipeline keeps several microbatches in flight per
// GPU, so activation state cannot live inside the layer.
package nn

import (
	"fmt"
	"math"

	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Layer cache structs recycle through parallel.Pool free lists, so
// steady-state forward/backward passes allocate no cache objects: Forward
// pops, Backward pushes back (see parallel.Pool for why not a sync.Pool).

// Param is one learnable tensor with its gradient accumulator. Value is the
// tensor the forward/backward kernels read (θ16's dense stand-in — under
// mixed precision it holds fp16-quantized values); Grad accumulates across
// microbatches.
type Param struct {
	Name  string
	Value *tensor.Tensor
	// Grad is owned by the parameter (newParam) until a core.ModelState is
	// built over the model. From then on it is a view into the state's
	// one-layer scratch, shared with every other layer's gradients: it is
	// valid only between its layer's Backward and the state's capture of
	// that layer, so a backward over a state-wired model must run with the
	// state's GradHook.
	Grad *tensor.Tensor
	// NoPrune excludes the parameter from pruning even if it is a matrix.
	// Embedding tables set it: pruning them harms accuracy disproportionately
	// and standard GPT pruning recipes (e.g. Cerebras' 90%-sparse GPT-3 runs
	// the paper cites) keep them dense.
	NoPrune bool
	// CSR, when set, stores a pruned weight matrix by its surviving entries
	// (Sparsify sets it on a Linear's (in, out) weight): its nonzeros are in
	// ascending row-major id order, the order of the SAMO index over the
	// same matrix, and Value is the rank-1, NNZ-long view of CSR.Val, so
	// every state vector of the parameter is pattern-length and in that
	// order. Grad is NNZ long too.
	CSR *sparse.CSR
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Size returns the number of elements.
func (p *Param) Size() int { return p.Value.Len() }

// ShrinkPattern drops a CSR weight's stored positions where keep (in stored
// order) is false, in place — NNZ only decreases, so no array is reallocated
// — and re-heads Value onto the compacted values and Grad onto as many of
// its own. Grad's values are not compacted: a shrink runs between steps,
// when the gradient is zero. Kept weights keep their exact bits.
func (p *Param) ShrinkPattern(keep []bool) {
	p.CSR.ShrinkTo(keep)
	nnz := p.CSR.NNZ()
	p.Value = tensor.FromSlice(p.CSR.Val, nnz)
	if p.Grad != nil {
		p.Grad = tensor.FromSlice(p.Grad.Data()[:nnz], nnz)
	}
}

// ZeroGrad clears the gradient accumulator. A state-wired parameter needs
// no clear: the state's capture leaves its view zero.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward computes the output and an
// opaque cache; Backward consumes the cache, accumulates parameter
// gradients into Params().Grad, and returns the gradient w.r.t. the input.
//
// The arena supplies activation/gradient/scratch tensors so steady-state
// training steps allocate nothing; it may be nil, in which case layers fall
// back to plain heap allocation (tests and one-off evaluations use this).
// The caller owns the arena's lifetime: tensors returned by Forward and the
// cache contents become invalid at the caller's next Arena.Reset, after the
// optimizer step that consumed them. Backward consumes the cache exactly
// once (cache structs are recycled through per-type pools).
//
// Forward with train=false is each layer's one eval forward, and is
// contractually cache-free: it returns a nil cache and must not touch the
// cache pools at all — no Get that eval discards, no compensating Put —
// so an inference pass (Model.Infer, EvalLoss, the serving engine) leaves
// the pools exactly as it found them and a serving process can run
// forwards forever without growing or draining training-side free lists.
// Its output must not alias x's storage (own data from a, or layer-owned):
// that is what lets Model.InferWindowed reclaim the arena holding x one
// layer later.
type Layer interface {
	Forward(a *tensor.Arena, x *tensor.Tensor, train bool) (y *tensor.Tensor, cache any)
	Backward(a *tensor.Arena, cache any, gradOut *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Model is an ordered stack of layers — the unit AxoNN partitions across
// inter-layer-parallel GPUs.
type Model struct {
	Name   string
	Layers []Layer

	params []*Param // memoized by Params
}

// Params returns all parameters in layer order. The result is memoized
// (gradient capture and ZeroGrads call it every step and must not
// allocate); the layer list must not change after the first call.
func (m *Model) Params() []*Param {
	if m.params == nil {
		for _, l := range m.Layers {
			m.params = append(m.params, l.Params()...)
		}
	}
	return m.params
}

// NumParams returns the total parameter count φ.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += p.Size()
	}
	return n
}

// ZeroGrads clears every gradient accumulator: the clear between backward
// passes of a model that owns its gradients. Under a core.ModelState the
// accumulators are views its capture leaves zero, so training never calls it.
func (m *Model) ZeroGrads() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// Forward runs all layers, returning the output and per-layer caches.
func (m *Model) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, []any) {
	caches := make([]any, len(m.Layers))
	return m.ForwardArena(nil, x, train, caches), caches
}

// ForwardArena runs all layers with tensors drawn from the arena, writing
// per-layer caches into the caller-provided slice (len = number of layers)
// so the steady-state forward pass allocates nothing.
func (m *Model) ForwardArena(a *tensor.Arena, x *tensor.Tensor, train bool, caches []any) *tensor.Tensor {
	if len(caches) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d cache slots for %d layers", len(caches), len(m.Layers)))
	}
	for i, l := range m.Layers {
		x, caches[i] = l.Forward(a, x, train)
	}
	return x
}

// GradHook observes the backward pass at layer boundaries. Capture is
// called after each layer's backward with that layer — the exact point SAMO
// compresses ∇θ16 at layer granularity so the whole model's dense gradients
// never coexist in memory (§III-C). core.ModelState's Capture also leaves
// the layer's gradient views zero for the next layer, which writes the same
// bytes, so its hook must run after every layer's backward.
type GradHook struct {
	Capture func(layer Layer)
}

// Backward runs the reverse pass from the output gradient, invoking the
// hook's Capture (when non-nil) after each layer. Returns the gradient
// w.r.t. the model input.
func (m *Model) Backward(caches []any, gradOut *tensor.Tensor, hook GradHook) *tensor.Tensor {
	return m.BackwardArena(nil, caches, gradOut, hook)
}

// BackwardArena is Backward with intermediate gradients drawn from the
// arena (they are reclaimed wholesale at the caller's next Reset).
func (m *Model) BackwardArena(a *tensor.Arena, caches []any, gradOut *tensor.Tensor, hook GradHook) *tensor.Tensor {
	if len(caches) != len(m.Layers) {
		panic(fmt.Sprintf("nn: %d caches for %d layers", len(caches), len(m.Layers)))
	}
	g := gradOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		g = m.Layers[i].Backward(a, caches[i], g)
		if hook.Capture != nil {
			hook.Capture(m.Layers[i])
		}
	}
	return g
}

// PruneLayers adapts the model's parameters for the prune package. Only
// weight matrices are prunable; biases and normalization affine parameters
// are kept dense (standard practice — they are a negligible fraction of φ
// and pruning them harms accuracy disproportionately).
func (m *Model) PruneLayers() []PruneEntry {
	var out []PruneEntry
	for _, p := range m.Params() {
		if Prunable(p) {
			out = append(out, PruneEntry{Name: p.Name, Param: p})
		}
	}
	return out
}

// PruneEntry pairs a parameter with its registry name.
type PruneEntry struct {
	Name  string
	Param *Param
}

// Prunable reports whether a parameter participates in pruning: rank >= 2
// (weight matrices), not biases/affine vectors, and not
// explicitly excluded (embedding tables). A CSR weight is rank 1, so it is
// not: its pattern is its own, and no index addresses its values.
func Prunable(p *Param) bool { return p.Value.Rank() >= 2 && !p.NoPrune }

// CrossEntropy computes the mean cross-entropy loss of logits (N, V) against
// integer targets, and the gradient w.r.t. the logits. Target -1 means
// "ignore" (padding). The gradient is already divided by the number of
// counted targets, so microbatch gradients sum to the batch gradient after
// scaling by microbatch count (the engine handles that normalization).
func CrossEntropy(logits *tensor.Tensor, targets []int) (float64, *tensor.Tensor) {
	return CrossEntropyArena(nil, logits, targets)
}

// CrossEntropyArena is CrossEntropy with the gradient tensor drawn from the
// arena (nil falls back to heap allocation).
func CrossEntropyArena(a *tensor.Arena, logits *tensor.Tensor, targets []int) (float64, *tensor.Tensor) {
	if logits.Rank() != 2 || logits.Dim(0) != len(targets) {
		panic(fmt.Sprintf("nn: CrossEntropy logits %v vs %d targets", logits.Shape(), len(targets)))
	}
	n, v := logits.Dim(0), logits.Dim(1)
	grad := a.GetZeroed(n, v)
	var loss float64
	counted := 0
	for i := 0; i < n; i++ {
		if targets[i] < 0 {
			continue
		}
		counted++
	}
	if counted == 0 {
		return 0, grad
	}
	inv := 1 / float64(counted)
	for i := 0; i < n; i++ {
		t := targets[i]
		if t < 0 {
			continue
		}
		row := logits.Data()[i*v : (i+1)*v]
		max := row[0]
		for _, x := range row[1:] {
			if x > max {
				max = x
			}
		}
		var sum float64
		for _, x := range row {
			sum += math.Exp(float64(x - max))
		}
		logZ := math.Log(sum) + float64(max)
		loss += (logZ - float64(row[t])) * inv
		g := grad.Data()[i*v : (i+1)*v]
		for j, x := range row {
			p := math.Exp(float64(x)-logZ) * inv
			g[j] = float32(p)
			_ = x
		}
		g[t] -= float32(inv)
	}
	return loss, grad
}

// Perplexity converts a mean cross-entropy loss to perplexity, the paper's
// Figure 4 metric.
func Perplexity(loss float64) float64 { return math.Exp(loss) }
