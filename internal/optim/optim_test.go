package optim

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/parallel"
)

func TestSGDPlainStep(t *testing.T) {
	s := NewSGD(0.1, 0, 0)
	p := []float32{1, 2}
	g := []float32{10, -10}
	s.Step("w", p, g)
	if p[0] != 0 || p[1] != 3 {
		t.Errorf("params = %v, want [0 3]", p)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	s := NewSGD(1, 0.9, 0)
	p := []float32{0}
	s.Step("w", p, []float32{1}) // v=1, p=-1
	s.Step("w", p, []float32{1}) // v=1.9, p=-2.9
	if math.Abs(float64(p[0]+2.9)) > 1e-6 {
		t.Errorf("p = %v, want -2.9", p[0])
	}
	if s.StateBytesPerParam() != 4 {
		t.Error("SGD state bytes")
	}
	if len(s.States("w")) != 1 {
		t.Error("SGD should expose one state vector")
	}
}

func TestSGDWeightDecay(t *testing.T) {
	s := NewSGD(0.1, 0, 0.5)
	p := []float32{2}
	s.Step("w", p, []float32{0})
	// g_eff = 0 + 0.5*2 = 1; p = 2 - 0.1 = 1.9
	if math.Abs(float64(p[0]-1.9)) > 1e-6 {
		t.Errorf("p = %v", p[0])
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the first Adam step moves by ≈ lr·sign(g).
	a := NewAdam(0.01)
	p := []float32{0, 0}
	a.Step("w", p, []float32{3, -7})
	for i, want := range []float32{-0.01, 0.01} {
		if math.Abs(float64(p[i]-want)) > 1e-4 {
			t.Errorf("p[%d] = %g, want %g", i, p[i], want)
		}
	}
	if a.StateBytesPerParam() != 8 {
		t.Error("Adam state bytes")
	}
	if len(a.States("w")) != 2 {
		t.Error("Adam should expose two state vectors")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = (x-3)²; Adam must approach 3.
	a := NewAdam(0.1)
	p := []float32{0}
	for i := 0; i < 500; i++ {
		g := []float32{2 * (p[0] - 3)}
		a.Step("w", p, g)
	}
	if math.Abs(float64(p[0]-3)) > 0.05 {
		t.Errorf("converged to %g, want 3", p[0])
	}
}

func TestAdamWDecoupledDecay(t *testing.T) {
	// With zero gradient, AdamW still shrinks weights by lr·wd·θ per step;
	// coupled Adam with zero grad also decays but through the moment
	// estimates. Check the decoupled form exactly on the first step.
	a := NewAdamW(0.1, 0.5)
	p := []float32{2}
	a.Step("w", p, []float32{0})
	// m=v=0 -> adam term 0; decoupled decay: 2 - 0.1*0.5*2 = 1.9
	if math.Abs(float64(p[0]-1.9)) > 1e-5 {
		t.Errorf("p = %g, want 1.9", p[0])
	}
}

func TestPerKeyStateIsolation(t *testing.T) {
	a := NewAdam(0.1)
	p1, p2 := []float32{0}, []float32{0}
	a.Step("a", p1, []float32{1})
	a.Step("b", p2, []float32{1})
	if p1[0] != p2[0] {
		t.Error("independent keys must evolve identically from identical inputs")
	}
	// Stepping "a" again must not touch "b"'s state.
	a.Step("a", p1, []float32{1})
	if p1[0] == p2[0] {
		t.Error("keys appear to share state")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	NewSGD(0.1, 0, 0).Step("w", []float32{1, 2}, []float32{1})
}

func TestLossScalerHalvesOnOverflow(t *testing.T) {
	ls := NewLossScaler()
	s0 := ls.Scale
	if ls.Update(true) {
		t.Error("overflow step must be skipped")
	}
	if ls.Scale != s0/2 {
		t.Errorf("scale %g, want %g", ls.Scale, s0/2)
	}
	if ls.skipped != 1 {
		t.Error("skip not counted")
	}
}

func TestLossScalerGrowsAfterInterval(t *testing.T) {
	ls := NewLossScaler()
	ls.GrowthInterval = 3
	s0 := ls.Scale
	for i := 0; i < 3; i++ {
		if !ls.Update(false) {
			t.Fatal("good step must proceed")
		}
	}
	if ls.Scale != s0*2 {
		t.Errorf("scale %g, want %g", ls.Scale, s0*2)
	}
}

func TestLossScalerOverflowResetsGrowth(t *testing.T) {
	ls := NewLossScaler()
	ls.GrowthInterval = 2
	s0 := ls.Scale
	ls.Update(false)
	ls.Update(true) // resets the good-step counter and halves
	ls.Update(false)
	if ls.Scale != s0/2 {
		t.Errorf("scale %g, want %g (growth must reset on overflow)", ls.Scale, s0/2)
	}
}

func TestLossScalerFloor(t *testing.T) {
	ls := NewLossScaler()
	for i := 0; i < 100; i++ {
		ls.Update(true)
	}
	if ls.Scale < 1 {
		t.Errorf("scale fell below 1: %g", ls.Scale)
	}
}

func TestClipGradNorm(t *testing.T) {
	g := [][]float32{{3}, {4}}
	norm := ClipGradNorm(g, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Errorf("pre-clip norm %g", norm)
	}
	var after float64
	for _, s := range g {
		for _, x := range s {
			after += float64(x) * float64(x)
		}
	}
	if math.Abs(math.Sqrt(after)-1) > 1e-5 {
		t.Errorf("post-clip norm %g, want 1", math.Sqrt(after))
	}
	// Below the threshold: untouched.
	g2 := [][]float32{{0.3, 0.4}}
	ClipGradNorm(g2, 1)
	if g2[0][0] != 0.3 || g2[0][1] != 0.4 {
		t.Error("clip must not modify small gradients")
	}
}

func TestOptimizerWorksOnCompressedVectors(t *testing.T) {
	// The SAMO property: running the optimizer on a compressed (shorter)
	// vector must produce the same values as running it on the dense vector
	// and then compressing — because pruned coordinates have zero grad and
	// zero value forever.
	dense := []float32{1, 0, 2, 0, 3}
	gDense := []float32{0.5, 0, -0.5, 0, 1}
	keepIdx := []int{0, 2, 4}
	comp := []float32{1, 2, 3}
	gComp := []float32{0.5, -0.5, 1}

	a1 := NewAdam(0.05)
	a2 := NewAdam(0.05)
	for step := 0; step < 10; step++ {
		a1.Step("w", dense, gDense)
		a2.Step("w", comp, gComp)
	}
	for i, k := range keepIdx {
		if math.Abs(float64(dense[k]-comp[i])) > 1e-6 {
			t.Errorf("coordinate %d: dense %g vs compressed %g", k, dense[k], comp[i])
		}
	}
	// Pruned coordinates stay exactly zero under Adam with zero grads.
	if dense[1] != 0 || dense[3] != 0 {
		t.Errorf("pruned coords moved: %v", dense)
	}
}

// refAdamStep and refSGDStep are the update loops as they stood before the
// constants and weight-decay conditions were hoisted and the sweep chunked
// on the worker pool: the bitwise reference for TestStepMatchesReferenceLoops.
func refAdamStep(a *Adam, t int, params, grads, m, v []float32) {
	b1, b2 := float32(a.Beta1), float32(a.Beta2)
	c1 := 1 / (1 - float32(math.Pow(a.Beta1, float64(t))))
	c2 := 1 / (1 - float32(math.Pow(a.Beta2, float64(t))))
	lr := float32(a.LR)
	eps := float32(a.Eps)
	wd := float32(a.WeightDecay)
	for i := range params {
		g := grads[i]
		if wd != 0 && !a.Decoupled {
			g += wd * params[i]
		}
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		mh := m[i] * c1
		vh := v[i] * c2
		upd := lr * mh / (float32(math.Sqrt(float64(vh))) + eps)
		if wd != 0 && a.Decoupled {
			upd += lr * wd * params[i]
		}
		params[i] -= upd
	}
}

func refSGDStep(s *SGD, params, grads, v []float32) {
	lr := float32(s.LR)
	mu := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	for i := range params {
		g := grads[i] + wd*params[i]
		v[i] = mu*v[i] + g
		params[i] -= lr * v[i]
	}
}

func TestStepMatchesReferenceLoops(t *testing.T) {
	l2Adam := NewAdam(1e-2)
	l2Adam.WeightDecay = 0.01 // not decoupled: decay folded into the gradient
	sameBits := func(t *testing.T, what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %g, reference %g", what, i, got[i], want[i])
			}
		}
	}
	defer parallel.SetWorkers(parallel.Workers())
	for _, workers := range []int{1, 2, 3, 4, 8} {
		parallel.SetWorkers(workers)
		for _, n := range []int{0, 1, 9, parallel.StreamGrain - 1, parallel.StreamGrain + 1, 5*parallel.StreamGrain + 3} {
			params, grads := make([]float32, n), make([]float32, n)
			for i := range params {
				params[i] = float32(i%997-498) / 997
			}
			for name, opt := range map[string]Optimizer{"adam": NewAdam(1e-2), "adamw": NewAdamW(1e-2, 0.01),
				"adam-l2": l2Adam, "sgd": NewSGD(1e-2, 0.9, 1e-4), "sgd-plain": NewSGD(1e-2, 0, 0)} {
				key := fmt.Sprintf("%s/w%d/n%d", name, workers, n)
				got, want := append([]float32(nil), params...), append([]float32(nil), params...)
				refState := [][]float32{make([]float32, n), make([]float32, n)}
				for step := 1; step <= 3; step++ {
					for i := range grads {
						grads[i] = float32((i*step)%1013-506) / 5000
					}
					opt.Step(key, got, grads)
					switch o := opt.(type) {
					case *Adam:
						refAdamStep(o, step, want, grads, refState[0], refState[1])
					case *SGD:
						refSGDStep(o, want, grads, refState[0])
					}
					sameBits(t, key+" params", got, want)
					for k, vec := range opt.States(key) {
						sameBits(t, fmt.Sprintf("%s state %d", key, k), vec, refState[k])
					}
				}
			}
		}
	}
}
