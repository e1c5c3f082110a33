package nn

import (
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

func TestRecomputeMatchesPlainGradients(t *testing.T) {
	// A transformer block with and without recomputation must produce
	// identical gradients (the recomputed forward is deterministic).
	rng := tensor.NewRNG(90)
	plain := NewTransformerBlock("blk", 8, 2, 4, rng)
	wrapped := Recompute{Inner: plain}

	x := randInput([]int{8, 8}, 91)
	gy := randInput([]int{8, 8}, 92)

	for _, p := range plain.Params() {
		p.ZeroGrad()
	}
	yP, cP := plain.Forward(nil, x, true)
	dxP := plain.Backward(nil, cP, gy)
	gradsP := make([]*tensor.Tensor, 0)
	for _, p := range plain.Params() {
		gradsP = append(gradsP, p.Grad.Clone())
		p.ZeroGrad()
	}

	yW, cW := wrapped.Forward(nil, x, true)
	dxW := wrapped.Backward(nil, cW, gy)

	if d := tensor.MaxAbsDiff(yP, yW); d != 0 {
		t.Errorf("forward outputs differ: %g", d)
	}
	if d := tensor.MaxAbsDiff(dxP, dxW); d != 0 {
		t.Errorf("input grads differ: %g", d)
	}
	for i, p := range wrapped.Params() {
		if d := tensor.MaxAbsDiff(gradsP[i], p.Grad); d != 0 {
			t.Errorf("param %s grads differ: %g", p.Name, d)
		}
	}
}

func TestRecomputeShrinksCache(t *testing.T) {
	rng := tensor.NewRNG(93)
	plain := NewTransformerBlock("blk", 16, 2, 8, rng)
	wrapped := Recompute{Inner: plain}
	x := randInput([]int{16, 16}, 94)

	_, cP := plain.Forward(nil, x, true)
	_, cW := wrapped.Forward(nil, x, true)
	full := CacheBytes(cP)
	check := CacheBytes(cW)
	if check >= full {
		t.Fatalf("recompute cache %d bytes not below full cache %d", check, full)
	}
	// The checkpointed cache is exactly the input tensor.
	if check != 4*int64(x.Len()) {
		t.Errorf("recompute cache %d bytes, want %d", check, 4*x.Len())
	}
	// The full transformer-block cache should dwarf the boundary tensor.
	if full < 4*check {
		t.Errorf("full cache (%d) suspiciously small vs boundary (%d)", full, check)
	}
}

func TestWithRecomputeWholeModel(t *testing.T) {
	rng := tensor.NewRNG(95)
	base := BuildMLP("mlp", []int{6, 12, 4}, rng)
	wrapped := WithRecompute(base)
	if len(wrapped.Layers) != len(base.Layers) {
		t.Fatal("layer count changed")
	}
	if wrapped.NumParams() != base.NumParams() {
		t.Fatal("params changed")
	}
	// End-to-end gradient equality through the model wrapper.
	x := randInput([]int{3, 6}, 96)
	targets := []int{0, 1, 2}

	base.ZeroGrads()
	y1, c1 := base.Forward(x, true)
	_, g1 := CrossEntropy(y1, targets)
	base.Backward(c1, g1, GradHook{})
	want := base.Params()[0].Grad.Clone()

	base.ZeroGrads() // wrapped shares the same params
	y2, c2 := wrapped.Forward(x, true)
	_, g2 := CrossEntropy(y2, targets)
	wrapped.Backward(c2, g2, GradHook{})
	if d := tensor.MaxAbsDiff(want, base.Params()[0].Grad); d != 0 {
		t.Errorf("wrapped model grads differ: %g", d)
	}
}

func TestRecomputeEvalMode(t *testing.T) {
	rng := tensor.NewRNG(97)
	l := Recompute{Inner: NewLinear("fc", 4, 3, rng)}
	y, cache := l.Forward(nil, randInput([]int{2, 4}, 98), false)
	if cache != nil {
		t.Error("eval mode must not cache")
	}
	if y.Dim(1) != 3 {
		t.Error("bad output")
	}
}

// CacheBytes estimates the activation bytes a cache value pins, for
// comparing checkpointed against full caching. It understands the cache
// types of this package; unknown types report 0.
func CacheBytes(cache any) int64 {
	switch c := cache.(type) {
	case nil:
		return 0
	case *recomputeCache:
		return 4 * int64(c.x.Len())
	case *linearCache:
		return 4 * int64(c.x.Len())
	case *lnCache:
		return 4 * (int64(c.xhat.Len()) + int64(len(c.invStd)))
	case *attnCache:
		return 4 * (int64(c.x.Len()) + int64(c.qkv.Len()) + int64(c.probs.Len()) + int64(c.heads.Len()))
	case *blockCache:
		return CacheBytes(c.cLN1) + CacheBytes(c.cAttn) + CacheBytes(c.cLN2) +
			CacheBytes(c.cFC1) + CacheBytes(c.cGELU) + CacheBytes(c.cFC2)
	case *convCache:
		return 4 * int64(c.cols.Len())
	case *tensor.Tensor: // ReLU mask / GELU pre-activations
		return 4 * int64(c.Len())
	default:
		return 0
	}
}
