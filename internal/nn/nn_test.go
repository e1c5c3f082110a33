package nn

import (
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/tensor"
)

// scalarLoss reduces a layer output to a scalar via a fixed random
// projection, so d loss / d y is a known tensor and finite differences can
// probe any parameter or input coordinate.
func scalarLoss(y, r *tensor.Tensor) float64 { return tensor.Dot(y, r) }

// gradCheck verifies a layer's analytic gradients (input + all params)
// against central finite differences on a sample of coordinates.
func gradCheck(t *testing.T, name string, l Layer, x *tensor.Tensor, seed uint64) {
	t.Helper()
	rng := tensor.NewRNG(seed)

	forward := func() (*tensor.Tensor, any) { return l.Forward(nil, x, true) }
	y0, cache := forward()
	r := tensor.New(y0.Shape()...)
	tensor.FillNormal(r, 1, rng)

	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	dx := l.Backward(nil, cache, r)

	lossAt := func() float64 {
		y, _ := l.Forward(nil, x, true)
		return scalarLoss(y, r)
	}

	const eps = 1e-2
	checkCoord := func(data []float32, i int, analytic float32, what string) {
		t.Helper()
		orig := data[i]
		data[i] = orig + eps
		lp := lossAt()
		data[i] = orig - eps
		lm := lossAt()
		data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(float64(analytic)-numeric) > 2e-2*(1+math.Abs(numeric)) {
			t.Errorf("%s %s[%d]: analytic %g vs numeric %g", name, what, i, analytic, numeric)
		}
	}

	// Sample input coordinates.
	n := x.Len()
	for s := 0; s < 8 && s < n; s++ {
		i := rng.Intn(n)
		checkCoord(x.Data(), i, dx.Data()[i], "input")
	}
	// Sample parameter coordinates.
	for _, p := range l.Params() {
		pn := p.Size()
		for s := 0; s < 6 && s < pn; s++ {
			i := rng.Intn(pn)
			checkCoord(p.Value.Data(), i, p.Grad.Data()[i], "param "+p.Name)
		}
	}
}

func randInput(shape []int, seed uint64) *tensor.Tensor {
	x := tensor.New(shape...)
	tensor.FillNormal(x, 1, tensor.NewRNG(seed))
	return x
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("fc", 7, 5, rng)
	gradCheck(t, "Linear", l, randInput([]int{4, 7}, 2), 3)
}

func TestReLUGradients(t *testing.T) {
	gradCheck(t, "ReLU", ReLULayer{}, randInput([]int{3, 9}, 4), 5)
}

func TestGELULayerGradients(t *testing.T) {
	gradCheck(t, "GELU", GELULayer{}, randInput([]int{3, 6}, 6), 7)
}

func TestLayerNormGradients(t *testing.T) {
	ln := NewLayerNorm("ln", 10)
	// Non-trivial gamma/beta so their gradients are exercised.
	tensor.FillNormal(ln.Gamma.Value, 0.5, tensor.NewRNG(8))
	tensor.Add(ln.Gamma.Value, onesLike(ln.Gamma.Value))
	tensor.FillNormal(ln.Beta.Value, 0.3, tensor.NewRNG(9))
	gradCheck(t, "LayerNorm", ln, randInput([]int{5, 10}, 10), 11)
}

func onesLike(x *tensor.Tensor) *tensor.Tensor {
	o := tensor.New(x.Shape()...)
	o.Fill(1)
	return o
}

func TestBatchNormGradients(t *testing.T) {
	bn := NewBatchNorm2d("bn", 3)
	tensor.FillNormal(bn.Beta.Value, 0.2, tensor.NewRNG(12))
	gradCheck(t, "BatchNorm2d", bn, randInput([]int{2, 3, 4, 4}, 13), 14)
}

func TestConv2dGradients(t *testing.T) {
	spec := tensor.ConvSpec{InC: 2, OutC: 3, Kernel: 3, Stride: 1, Pad: 1, InH: 5, InW: 5}
	c := NewConv2d("conv", spec, tensor.NewRNG(15))
	gradCheck(t, "Conv2d", c, randInput([]int{2, 2, 5, 5}, 16), 17)
}

func TestMaxPoolGradients(t *testing.T) {
	gradCheck(t, "MaxPool", MaxPool{}, randInput([]int{2, 2, 4, 4}, 18), 19)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	gradCheck(t, "GlobalAvgPool", GlobalAvgPool{}, randInput([]int{2, 3, 4, 4}, 20), 21)
}

func TestAttentionGradients(t *testing.T) {
	a := NewCausalSelfAttention("attn", 8, 2, 4, tensor.NewRNG(22))
	gradCheck(t, "Attention", a, randInput([]int{8, 8}, 23), 24) // batch 2 × seq 4
}

func TestTransformerBlockGradients(t *testing.T) {
	b := NewTransformerBlock("blk", 8, 2, 4, tensor.NewRNG(25))
	gradCheck(t, "TransformerBlock", b, randInput([]int{8, 8}, 26), 27)
}

func TestResidualBlockGradients(t *testing.T) {
	b := NewResidualBlock("res", 2, 4, 4, 4, 2, tensor.NewRNG(28))
	// Keep both BN outputs away from the ReLU kink (γ small, β ≈ 2) so
	// finite differences stay valid: a perturbation that shifts a whole
	// normalized channel across zero would corrupt the numeric gradient.
	// ReLU's own kink behaviour is verified by TestReLUGradients.
	for _, bn := range []*BatchNorm2d{b.BN1, b.BN2} {
		bn.Gamma.Value.Fill(0.1)
		bn.Beta.Value.Fill(2)
	}
	gradCheck(t, "ResidualBlock", b, randInput([]int{2, 2, 4, 4}, 29), 30)
}

func TestEmbeddingGradients(t *testing.T) {
	e := NewEmbedding("emb", 11, 3, 6, tensor.NewRNG(31))
	x := TokensToTensor([]int{1, 5, 10, 0, 2, 7}) // batch 2 × seq 3
	y, cache := e.Forward(nil, x, true)
	r := tensor.New(y.Shape()...)
	tensor.FillNormal(r, 1, tensor.NewRNG(32))
	e.Tok.ZeroGrad()
	e.Pos.ZeroGrad()
	e.Backward(nil, cache, r)
	// Token 5 appears once at position 1: its grad row equals r's row 1.
	d := 6
	for j := 0; j < d; j++ {
		if e.Tok.Grad.At(5, j) != r.At(1, j) {
			t.Fatalf("token grad wrong at %d", j)
		}
	}
	// Position 0 is used by rows 0 and 3.
	for j := 0; j < d; j++ {
		want := r.At(0, j) + r.At(3, j)
		if math.Abs(float64(e.Pos.Grad.At(0, j)-want)) > 1e-5 {
			t.Fatalf("pos grad wrong at %d", j)
		}
	}
}

func TestCausalityOfAttention(t *testing.T) {
	// Changing a future token must not affect earlier outputs.
	a := NewCausalSelfAttention("attn", 8, 2, 4, tensor.NewRNG(33))
	x := randInput([]int{4, 8}, 34) // batch 1 × seq 4
	y1, _ := a.Forward(nil, x, false)
	x2 := x.Clone()
	for j := 0; j < 8; j++ {
		x2.Set(x2.At(3, j)+5, 3, j) // perturb last position
	}
	y2, _ := a.Forward(nil, x2, false)
	for i := 0; i < 3; i++ {
		for j := 0; j < 8; j++ {
			if y1.At(i, j) != y2.At(i, j) {
				t.Fatalf("causality violated at (%d,%d)", i, j)
			}
		}
	}
}

func TestCrossEntropyValueAndGrad(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 2, 3, 0.5, 0.5, 0.5}, 2, 3)
	loss, grad := CrossEntropy(logits, []int{2, 0})
	// Manual computation.
	want := 0.0
	{
		z := []float64{1, 2, 3}
		lse := math.Log(math.Exp(z[0]) + math.Exp(z[1]) + math.Exp(z[2]))
		want += lse - 3
		want += math.Log(3*math.Exp(0.5)) - 0.5
		want /= 2
	}
	if math.Abs(loss-want) > 1e-6 {
		t.Errorf("loss %g want %g", loss, want)
	}
	// Grad rows sum to zero (softmax minus one-hot).
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-6 {
			t.Errorf("grad row %d sums to %g", i, s)
		}
	}
	// Finite difference on one logit.
	const eps = 1e-3
	l2 := logits.Clone()
	l2.Set(l2.At(0, 1)+eps, 0, 1)
	lp, _ := CrossEntropy(l2, []int{2, 0})
	num := (lp - loss) / eps
	if math.Abs(num-float64(grad.At(0, 1))) > 1e-3 {
		t.Errorf("CE grad: numeric %g analytic %g", num, grad.At(0, 1))
	}
}

func TestCrossEntropyIgnoreIndex(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	loss1, grad := CrossEntropy(logits, []int{0, -1})
	if grad.At(1, 0) != 0 || grad.At(1, 1) != 0 {
		t.Error("ignored row must have zero grad")
	}
	loss2, _ := CrossEntropy(logits.Slice(0, 1), []int{0})
	if math.Abs(loss1-loss2) > 1e-6 {
		t.Errorf("ignore index changes loss: %g vs %g", loss1, loss2)
	}
	lossAll, gradAll := CrossEntropy(logits, []int{-1, -1})
	if lossAll != 0 || tensor.Sum(gradAll) != 0 {
		t.Error("all-ignored batch should be zero loss/grad")
	}
}

func TestModelEndToEndGradient(t *testing.T) {
	// Whole-model gradient through an MLP with a cross-entropy head.
	rng := tensor.NewRNG(40)
	m := BuildMLP("mlp", []int{6, 8, 4}, rng)
	x := randInput([]int{3, 6}, 41)
	targets := []int{1, 3, 0}

	loss := func() float64 {
		y, _ := m.Forward(x, true)
		l, _ := CrossEntropy(y, targets)
		return l
	}
	m.ZeroGrads()
	y, caches := m.Forward(x, true)
	_, g := CrossEntropy(y, targets)
	m.Backward(caches, g, GradHook{})

	p := m.Params()[0] // first weight matrix
	const eps = 1e-2
	rng2 := tensor.NewRNG(42)
	for s := 0; s < 8; s++ {
		i := rng2.Intn(p.Size())
		orig := p.Value.Data()[i]
		p.Value.Data()[i] = orig + eps
		lp := loss()
		p.Value.Data()[i] = orig - eps
		lm := loss()
		p.Value.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(p.Grad.Data()[i])) > 2e-2*(1+math.Abs(num)) {
			t.Errorf("model grad [%d]: numeric %g analytic %g", i, num, p.Grad.Data()[i])
		}
	}
}

func TestGradHookFiresPerLayerInReverse(t *testing.T) {
	rng := tensor.NewRNG(50)
	m := BuildMLP("mlp", []int{4, 5, 3}, rng)
	x := randInput([]int{2, 4}, 51)
	y, caches := m.Forward(x, true)
	_, g := CrossEntropy(y, []int{0, 1})
	var order []Layer
	var done []int
	m.Backward(caches, g, GradHook{
		Capture:   func(l Layer) { order = append(order, l) },
		LayerDone: func(i int) { done = append(done, i) },
	})
	if len(order) != len(m.Layers) {
		t.Fatalf("hook fired %d times for %d layers", len(order), len(m.Layers))
	}
	for i := range order {
		if order[i] != m.Layers[len(m.Layers)-1-i] {
			t.Fatalf("hook order not reverse of layer order")
		}
	}
	if len(done) != len(m.Layers) {
		t.Fatalf("LayerDone fired %d times for %d layers", len(done), len(m.Layers))
	}
	for i, l := range done {
		if l != len(m.Layers)-1-i {
			t.Fatalf("LayerDone order = %v, want reverse layer indices", done)
		}
	}
}

func TestMicrobatchGradientsSumToBatch(t *testing.T) {
	// Two half-batches accumulated must equal one full batch (scaled):
	// the property AxoNN's pipelined accumulation relies on.
	rng := tensor.NewRNG(60)
	m := BuildMLP("mlp", []int{4, 6, 3}, rng)
	x := randInput([]int{4, 4}, 61)
	targets := []int{0, 1, 2, 1}

	run := func(lo, hi int) {
		y, caches := m.Forward(x.Slice(lo, hi), true)
		_, g := CrossEntropy(y, targets[lo:hi])
		tensor.Scale(g, float32(hi-lo)/4) // weight by sub-batch fraction
		m.Backward(caches, g, GradHook{})
	}
	m.ZeroGrads()
	run(0, 4)
	full := m.Params()[0].Grad.Clone()
	m.ZeroGrads()
	run(0, 2)
	run(2, 4)
	split := m.Params()[0].Grad
	if d := tensor.MaxAbsDiff(full, split); d > 1e-5 {
		t.Errorf("microbatch sum mismatch: %g", d)
	}
}

func TestGPTConfigParamCounts(t *testing.T) {
	cases := []struct {
		cfg  GPTConfig
		want float64 // billions
	}{
		{GPT3XL, 1.3}, {GPT3_2B7, 2.7}, {GPT3_6B7, 6.7}, {GPT3_13B, 13},
	}
	for _, c := range cases {
		got := float64(c.cfg.NumParams()) / 1e9
		if math.Abs(got-c.want)/c.want > 0.1 {
			t.Errorf("%s: %.2fB params, want ≈%.1fB", c.cfg.Name, got, c.want)
		}
	}
}

func TestFlopsFormulaSanity(t *testing.T) {
	f := GPT3_2B7.FlopsPerBatch(512)
	// ≈ 6·φ per token × recompute factor 4/3 = 8·φ per token:
	// 512·2048 tokens × 2.7e9 params × 8 ≈ 2.3e16.
	if f < 1e16 || f > 4e16 {
		t.Errorf("2.7B flops per 512-batch = %g, outside sanity band", f)
	}
	if GPT3_13B.FlopsPerBatch(2048) <= GPT3XL.FlopsPerBatch(512) {
		t.Error("13B batch must cost more than XL batch")
	}
}

func TestTinyGPTForwardShapes(t *testing.T) {
	cfg := GPTConfig{Name: "tiny", Layers: 2, Hidden: 16, Heads: 2, Seq: 4, Vocab: 17}
	m := BuildGPT(cfg, tensor.NewRNG(70))
	x := TokensToTensor([]int{1, 2, 3, 4, 5, 6, 7, 8}) // batch 2 × seq 4
	y, _ := m.Forward(x, false)
	if y.Dim(0) != 8 || y.Dim(1) != 17 {
		t.Errorf("GPT output %v, want (8,17)", y.Shape())
	}
	if m.NumParams() == 0 {
		t.Error("no params")
	}
}

func TestVGGAndWRNForwardShapes(t *testing.T) {
	rng := tensor.NewRNG(71)
	vgg := BuildVGG("vgg-s", []int{16, 16, -1, 32, 32, -1, 64, 64, -1}, 3, 16, 10, rng)
	x := randInput([]int{2, 3, 16, 16}, 72)
	y, _ := vgg.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Errorf("VGG output %v", y.Shape())
	}
	wrn := BuildWideResNet("wrn-s", 1, 2, 3, 16, 10, rng)
	y2, _ := wrn.Forward(x, false)
	if y2.Dim(0) != 2 || y2.Dim(1) != 10 {
		t.Errorf("WRN output %v", y2.Shape())
	}
}

func TestPrunableSelection(t *testing.T) {
	rng := tensor.NewRNG(73)
	m := BuildMLP("mlp", []int{4, 5, 3}, rng)
	entries := m.PruneLayers()
	// Two Linear layers -> two prunable weight matrices, biases excluded.
	if len(entries) != 2 {
		t.Fatalf("%d prunable entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Param.Value.Rank() < 2 {
			t.Errorf("non-matrix %s marked prunable", e.Name)
		}
	}
}

func TestPerplexity(t *testing.T) {
	if Perplexity(0) != 1 {
		t.Error("perplexity of zero loss must be 1")
	}
	if math.Abs(Perplexity(math.Log(50))-50) > 1e-9 {
		t.Error("perplexity inverse of log")
	}
}

func TestEvalModeNoCaches(t *testing.T) {
	rng := tensor.NewRNG(74)
	m := BuildMLP("mlp", []int{4, 5, 3}, rng)
	_, caches := m.Forward(randInput([]int{2, 4}, 75), false)
	for i, c := range caches {
		if c != nil {
			t.Errorf("layer %d returned a cache in eval mode", i)
		}
	}
}
