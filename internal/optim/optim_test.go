package optim

import (
	"fmt"
	"math"
	"testing"

	"github.com/sparse-dl/samo/internal/parallel"
)

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
	NewAdam(0.1).Step("w", []float32{1, 2}, []float32{1})
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

// refAdamStep is the update loop as it stood before the constants and
// weight-decay conditions were hoisted and the sweep chunked on the worker
// pool: the bitwise reference for TestStepMatchesReferenceLoops.
func refAdamStep(a *Adam, t int, params, grads, m, v []float32) {
	b1, b2 := float32(a.Beta1), float32(a.Beta2)
	c1 := 1 / (1 - float32(math.Pow(a.Beta1, float64(t))))
	c2 := 1 / (1 - float32(math.Pow(a.Beta2, float64(t))))
	lr := float32(a.LR)
	eps := float32(a.Eps)
	wd := float32(a.WeightDecay)
	for i := range params {
		g := grads[i]
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		mh := m[i] * c1
		vh := v[i] * c2
		upd := lr * mh / (float32(math.Sqrt(float64(vh))) + eps)
		if wd != 0 {
			upd += lr * wd * params[i]
		}
		params[i] -= upd
	}
}

func TestStepMatchesReferenceLoops(t *testing.T) {
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
			for name, opt := range map[string]*Adam{"adam": NewAdam(1e-2), "adamw": NewAdamW(1e-2, 0.01)} {
				key := fmt.Sprintf("%s/w%d/n%d", name, workers, n)
				got, want := append([]float32(nil), params...), append([]float32(nil), params...)
				refState := [][]float32{make([]float32, n), make([]float32, n)}
				for step := 1; step <= 3; step++ {
					for i := range grads {
						grads[i] = float32((i*step)%1013-506) / 5000
					}
					opt.Step(key, got, grads)
					refAdamStep(opt, step, want, grads, refState[0], refState[1])
					sameBits(t, key+" params", got, want)
					for k, vec := range opt.States(key) {
						sameBits(t, fmt.Sprintf("%s state %d", key, k), vec, refState[k])
					}
				}
			}
		}
	}
}

// adamSpecials are the inputs TestAdamVectorMatchesGo plants among ordinary
// values: signed zeros, subnormals, a gradient whose square overflows, and
// infinities and NaNs of both signs.
var adamSpecials = []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -1e-40,
	3e19, -3e19, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(0xFFC00001)}

// adamValues returns n values starting off elements into their backing
// array (so the kernel meets addresses off a 32-byte boundary): ordinary
// magnitudes, with one of adamSpecials at every eleventh position, chosen by
// seed.
func adamValues(n, off, seed int) []float32 {
	s := make([]float32, off+n)[off:]
	for i := range s {
		if i%11 == 5 {
			s[i] = adamSpecials[(i/11+seed)%len(adamSpecials)]
		} else {
			s[i] = float32((i*7+seed*13)%1013-506) / 997
		}
	}
	return s
}

// sameAdamBits is bitwise equality except that any NaN equals any NaN: when
// both operands of an add are NaN x86 keeps the first one's payload, and
// which is first is the compiler's choice in the Go loop.
func sameAdamBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s[%d] = %#08x, Go loop %#08x", what, i, math.Float32bits(g), math.Float32bits(w))
		}
	}
}

// TestAdamVectorMatchesGo holds the AVX2 Adam kernel to the Go loop it
// replaces, bit for bit, in both variants (plain and decoupled decay), over
// 12 steps, at every length up to two vector bodies and a tail, 8k±1 around
// a few more and lengths that chunk on the pool, from odd start offsets,
// with adamSpecials in both the parameters and the gradients.
func TestAdamVectorMatchesGo(t *testing.T) {
	if !adamVector {
		t.Skip("no AVX2 on this host: the Go loop is the only Adam it runs")
	}
	defer func() { adamVector = true }()
	defer parallel.SetWorkers(parallel.SetWorkers(2))
	variants := map[string]func() *Adam{
		"adam":  func() *Adam { return NewAdam(1e-2) },
		"adamw": func() *Adam { return NewAdamW(1e-2, 0.01) },
	}
	lens := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33, 255, 257,
		parallel.StreamGrain + 1, 2*parallel.StreamGrain + 9} // the last two run chunked
	for name, mk := range variants {
		for _, n := range lens {
			for _, off := range []int{0, 1, 3} {
				goOpt, vecOpt := mk(), mk()
				pGo, pVec := adamValues(n, off, 0), adamValues(n, off, 0)
				for step := 1; step <= 12; step++ {
					g := adamValues(n, off, step)
					adamVector = false
					goOpt.Step("k", pGo, g)
					adamVector = true
					vecOpt.Step("k", pVec, g)
					what := fmt.Sprintf("%s/n%d/off%d/step%d", name, n, off, step)
					sameAdamBits(t, what+" params", pVec, pGo)
					for k, s := range vecOpt.States("k") {
						sameAdamBits(t, fmt.Sprintf("%s state %d", what, k), s, goOpt.States("k")[k])
					}
				}
			}
		}
	}
}

// BenchmarkAdam times one Adam step over the bench MLP's 1 403 168
// parameters (256-768-768-768-32, the mlp_dp2_tcp_dense model, as one
// vector) at the default worker count.
func BenchmarkAdam(b *testing.B) {
	const n = 1403168
	params, grads := make([]float32, n), make([]float32, n)
	for i := range grads {
		params[i] = float32(i%997-498) / 997
		grads[i] = float32(i%1999-999) / 1e5
	}
	a := NewAdam(1e-3)
	a.Step("k", params, grads) // allocates the moments, untimed
	b.SetBytes(4 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step("k", params, grads)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
}
