// Package optim implements the optimizers the paper trains with — SGD with
// momentum for the CNNs, AdamW for the GPT models — plus dynamic loss
// scaling for mixed precision.
//
// Every optimizer operates on flat float32 slices (parameters, gradients,
// states). This is deliberate: SAMO's compressed model states are flat
// per-layer vectors over the unpruned coordinates, and the identical update
// code runs on them — the paper's observation that "the optimizer can be
// directly computed on the compressed state tensors using dense kernels"
// (§III-C) is literally this property.
package optim

import (
	"fmt"
	"math"

	"github.com/sparse-dl/samo/internal/parallel"
)

// Optimizer updates one flat parameter vector from its gradient. Each
// parameter tensor (or compressed state vector) gets its own state slot,
// addressed by key.
type Optimizer interface {
	// Step applies one update to params given grads (same length).
	Step(key string, params, grads []float32)
	// StateBytesPerParam reports the optimizer-state footprint in bytes per
	// parameter (Adam: 8 — two fp32 moments; SGD+momentum: 4).
	StateBytesPerParam() int
	// States returns the state vectors for a key (for SAMO to manage their
	// storage); created lazily on first Step.
	States(key string) [][]float32
	// StepCount returns the per-key update count (Adam's bias-correction
	// clock; 0 for stateless-in-time optimizers like SGD).
	StepCount(key string) int
	// SetStepCount restores the per-key update count (checkpoint resume).
	SetStepCount(key string, t int)
	// CompactState drops a key's state entries at positions where keep is
	// false, compacting each state vector in place (gradual pruning
	// shrinks a compressed parameter vector; its optimizer state must
	// shrink identically, entry for entry). A key with no state yet is a
	// no-op.
	CompactState(key string, keep []bool)
}

// SGD is stochastic gradient descent with classical momentum and optional
// L2 regularization (the paper's CNN recipe).
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[string][]float32
	job         sgdJob
}

// sgdJob carries one Step's vectors and constants to the worker pool: the
// update is element-wise, so chunking it leaves every result bit-identical
// at every worker count. Step is not safe for concurrent use (it grows the
// state maps), so the optimizer owns a single job rather than pooling them.
type sgdJob struct {
	params, grads, v []float32
	lr, mu, wd       float32
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[string][]float32)}
}

// Step applies v = μv + (g + λθ); θ -= lr·v.
func (s *SGD) Step(key string, params, grads []float32) {
	checkLens(key, params, grads)
	v, ok := s.velocity[key]
	if !ok {
		v = make([]float32, len(params))
		s.velocity[key] = v
	}
	s.job = sgdJob{params: params, grads: grads, v: v,
		lr: float32(s.LR), mu: float32(s.Momentum), wd: float32(s.WeightDecay)}
	parallel.Run(len(params), parallel.StreamGrain, &s.job, sgdChunk)
}

func sgdChunk(ctx any, lo, hi int) {
	j := ctx.(*sgdJob)
	params, grads, v := j.params[lo:hi], j.grads[lo:hi], j.v[lo:hi]
	lr, mu, wd := j.lr, j.mu, j.wd
	for i, g := range grads {
		g += wd * params[i]
		v[i] = mu*v[i] + g
		params[i] -= lr * v[i]
	}
}

// StateBytesPerParam returns 4 (one fp32 velocity).
func (s *SGD) StateBytesPerParam() int { return 4 }

// States returns the velocity vector.
func (s *SGD) States(key string) [][]float32 {
	if v, ok := s.velocity[key]; ok {
		return [][]float32{v}
	}
	return nil
}

// StepCount returns 0: SGD's update rule is time-invariant.
func (s *SGD) StepCount(string) int { return 0 }

// SetStepCount is a no-op for SGD.
func (s *SGD) SetStepCount(string, int) {}

// CompactState shrinks the velocity vector onto the kept positions.
func (s *SGD) CompactState(key string, keep []bool) {
	if v, ok := s.velocity[key]; ok {
		s.velocity[key] = compactKept(key, v, keep)
	}
}

// Adam is the Adam optimizer (Kingma & Ba) — the paper's memory model
// assumes it: two fp32 states per parameter, the 8φ term in M_default.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// WeightDecay, when set with Decoupled, gives AdamW (Loshchilov &
	// Hutter), the paper's optimizer for GPT models.
	WeightDecay float64
	Decoupled   bool

	m, v map[string][]float32
	t    map[string]int
	job  adamJob
}

// adamJob is Adam's counterpart of sgdJob, with every loop-invariant
// constant and condition of the update computed once per Step.
type adamJob struct {
	params, grads, m, v []float32
	b1, b2, omb1, omb2  float32 // β and 1−β
	c1, c2              float32 // bias corrections 1/(1−βᵗ)
	lr, eps, wd, lrwd   float32
	l2, decay           bool // weight decay folded into the gradient / decoupled
}

// NewAdam returns Adam with the usual defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[string][]float32), v: make(map[string][]float32), t: make(map[string]int)}
}

// NewAdamW returns decoupled-weight-decay Adam.
func NewAdamW(lr, weightDecay float64) *Adam {
	a := NewAdam(lr)
	a.WeightDecay = weightDecay
	a.Decoupled = true
	return a
}

// Step applies one bias-corrected Adam/AdamW update.
func (a *Adam) Step(key string, params, grads []float32) {
	checkLens(key, params, grads)
	m, ok := a.m[key]
	if !ok {
		m = make([]float32, len(params))
		v := make([]float32, len(params))
		a.m[key], a.v[key] = m, v
	}
	v := a.v[key]
	a.t[key]++
	t := a.t[key]
	b1, b2 := float32(a.Beta1), float32(a.Beta2)
	lr, wd := float32(a.LR), float32(a.WeightDecay)
	a.job = adamJob{params: params, grads: grads, m: m, v: v,
		b1: b1, b2: b2, omb1: 1 - b1, omb2: 1 - b2,
		c1: 1 / (1 - float32(math.Pow(a.Beta1, float64(t)))),
		c2: 1 / (1 - float32(math.Pow(a.Beta2, float64(t)))),
		lr: lr, eps: float32(a.Eps), wd: wd, lrwd: lr * wd,
		l2: wd != 0 && !a.Decoupled, decay: wd != 0 && a.Decoupled}
	parallel.Run(len(params), parallel.StreamGrain, &a.job, adamChunk)
}

// adamChunk updates one chunk from locals only. Every float32 expression
// keeps the shape and order the bitwise goldens were recorded with.
func adamChunk(ctx any, lo, hi int) {
	j := ctx.(*adamJob)
	params, grads, m, v := j.params[lo:hi], j.grads[lo:hi], j.m[lo:hi], j.v[lo:hi]
	b1, b2, omb1, omb2, c1, c2 := j.b1, j.b2, j.omb1, j.omb2, j.c1, j.c2
	lr, eps, wd, lrwd, l2, decay := j.lr, j.eps, j.wd, j.lrwd, j.l2, j.decay
	for i, g := range grads {
		if l2 {
			g += wd * params[i]
		}
		m[i] = b1*m[i] + omb1*g
		v[i] = b2*v[i] + omb2*g*g
		mh := m[i] * c1
		vh := v[i] * c2
		upd := lr * mh / (float32(math.Sqrt(float64(vh))) + eps)
		if decay {
			upd += lrwd * params[i]
		}
		params[i] -= upd
	}
}

// StateBytesPerParam returns 8 (two fp32 moments) — the paper's os term.
func (a *Adam) StateBytesPerParam() int { return 8 }

// States returns the first and second moment vectors.
func (a *Adam) States(key string) [][]float32 {
	if m, ok := a.m[key]; ok {
		return [][]float32{m, a.v[key]}
	}
	return nil
}

// StepCount returns the bias-correction clock for a key.
func (a *Adam) StepCount(key string) int { return a.t[key] }

// SetStepCount restores the bias-correction clock (checkpoint resume).
func (a *Adam) SetStepCount(key string, t int) { a.t[key] = t }

// CompactState shrinks both moment vectors onto the kept positions.
func (a *Adam) CompactState(key string, keep []bool) {
	if m, ok := a.m[key]; ok {
		a.m[key] = compactKept(key, m, keep)
		a.v[key] = compactKept(key, a.v[key], keep)
	}
}

// compactKept filters v to the kept positions in place and returns the
// shortened slice (the backing array is reused — state shrinkage never
// reallocates).
func compactKept(key string, v []float32, keep []bool) []float32 {
	if len(v) != len(keep) {
		panic(fmt.Sprintf("optim: %s state %d vs keep mask %d", key, len(v), len(keep)))
	}
	w := 0
	for i, k := range keep {
		if k {
			v[w] = v[i]
			w++
		}
	}
	return v[:w]
}

func checkLens(key string, params, grads []float32) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("optim: %s params %d vs grads %d", key, len(params), len(grads)))
	}
}

// LossScaler implements dynamic loss scaling for mixed precision
// (Micikevicius et al.): the loss is multiplied by Scale before backward so
// small gradients survive fp16; on overflow the step is skipped and the
// scale halved; after GrowthInterval good steps the scale doubles.
type LossScaler struct {
	Scale          float64
	GrowthInterval int
	MaxScale       float64

	goodSteps int
	skipped   int
}

// NewLossScaler returns a scaler with the PyTorch-AMP-like defaults.
func NewLossScaler() *LossScaler {
	return &LossScaler{Scale: 65536, GrowthInterval: 2000, MaxScale: 1 << 24}
}

// Update records whether the step overflowed and adjusts the scale. It
// returns true if the optimizer step should proceed (no overflow).
func (ls *LossScaler) Update(overflowed bool) bool {
	if overflowed {
		ls.Scale = math.Max(1, ls.Scale/2)
		ls.goodSteps = 0
		ls.skipped++
		return false
	}
	ls.goodSteps++
	if ls.goodSteps >= ls.GrowthInterval && ls.Scale < ls.MaxScale {
		ls.Scale *= 2
		ls.goodSteps = 0
	}
	return true
}

// Snapshot returns the scaler's full mutable state for checkpointing.
func (ls *LossScaler) Snapshot() (scale float64, goodSteps, skipped int) {
	return ls.Scale, ls.goodSteps, ls.skipped
}

// Restore reinstates a snapshot taken with Snapshot.
func (ls *LossScaler) Restore(scale float64, goodSteps, skipped int) {
	ls.Scale, ls.goodSteps, ls.skipped = scale, goodSteps, skipped
}

// ClipGradNorm scales grads so their global L2 norm is at most maxNorm,
// returning the pre-clip norm (the paper's models all train with gradient
// clipping, per Brown et al.'s hyperparameters).
func ClipGradNorm(grads [][]float32, maxNorm float64) float64 {
	var sq float64
	for _, g := range grads {
		for _, x := range g {
			sq += float64(x) * float64(x)
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		s := float32(maxNorm / norm)
		for _, g := range grads {
			for i := range g {
				g[i] *= s
			}
		}
	}
	return norm
}
