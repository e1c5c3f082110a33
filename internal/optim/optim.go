// Package optim implements Adam and AdamW — the paper trains its GPT models
// with AdamW — plus dynamic loss scaling for mixed precision.
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
	"github.com/sparse-dl/samo/internal/sparse"
	"github.com/sparse-dl/samo/internal/tensor"
)

// Optimizer updates one flat parameter vector from its gradient. Each
// parameter tensor (or compressed state vector) gets its own state slot,
// addressed by key.
type Optimizer interface {
	// Step applies one update to params given grads (same length).
	Step(key string, params, grads []float32)
	// StateBytesPerParam reports the optimizer-state footprint in bytes per
	// parameter (Adam: 8 — two fp32 moments).
	StateBytesPerParam() int
	// States returns the state vectors for a key (for SAMO to manage their
	// storage); created lazily on first Step.
	States(key string) [][]float32
	// StepCount returns the per-key update count (Adam's bias-correction
	// clock).
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

// Adam is the Adam optimizer (Kingma & Ba) — the paper's memory model
// assumes it: two fp32 states per parameter, the 8φ term in M_default.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// WeightDecay, when nonzero, gives AdamW (Loshchilov & Hutter):
	// decay decoupled from the gradient, the paper's optimizer for GPT
	// models.
	WeightDecay float64

	m, v map[string][]float32
	t    map[string]int
	job  adamJob
}

// adamJob is Adam's counterpart of sgdJob, with every loop-invariant
// constant and condition of the update computed once per Step.
type adamJob struct {
	params, grads, m, v []float32
	adamConsts
	decay bool // AdamW: WeightDecay != 0
}

// adamConsts are the update's float32 constants, in the order adam_amd64.s
// reads them.
type adamConsts struct {
	b1, b2, omb1, omb2 float32 // β and 1−β
	c1, c2             float32 // bias corrections 1/(1−βᵗ)
	lr, eps, lrwd      float32
}

// adamVector reports whether adamChunk runs the AVX2 kernel of adam_amd64.s
// over each chunk's multiple-of-8 body. It is internal/tensor's start-up
// probe (tensor.HostAVX2), so the process asks the CPU once and nothing a
// user sets chooses it. The Go loop stays as the path of every other host
// (and of each chunk's last 0–7 elements) and as the oracle the kernel is
// pinned to bit for bit. A variable so tests can force the Go loop.
var adamVector = tensor.HostAVX2()

// NewAdam returns Adam with the usual defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[string][]float32), v: make(map[string][]float32), t: make(map[string]int)}
}

// NewAdamW returns decoupled-weight-decay Adam.
func NewAdamW(lr, weightDecay float64) *Adam {
	a := NewAdam(lr)
	a.WeightDecay = weightDecay
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
	a.job = adamJob{params: params, grads: grads, m: m, v: v, decay: wd != 0,
		adamConsts: adamConsts{b1: b1, b2: b2, omb1: 1 - b1, omb2: 1 - b2,
			c1: 1 / (1 - float32(math.Pow(a.Beta1, float64(t)))),
			c2: 1 / (1 - float32(math.Pow(a.Beta2, float64(t)))),
			lr: lr, eps: float32(a.Eps), lrwd: lr * wd}}
	parallel.Run(len(params), parallel.StreamGrain, &a.job, adamChunk)
}

// adamChunk updates one chunk from locals only. Every float32 expression
// keeps the shape and order the bitwise goldens were recorded with, and the
// vector kernel runs the same sequence.
func adamChunk(ctx any, lo, hi int) {
	j := ctx.(*adamJob)
	params, grads, m, v := j.params[lo:hi], j.grads[lo:hi], j.m[lo:hi], j.v[lo:hi]
	if n := len(grads) &^ 7; adamVector && n > 0 {
		adamAVX2(&params[0], &grads[0], &m[0], &v[0], n, &j.adamConsts, j.decay)
		params, grads, m, v = params[n:], grads[n:], m[n:], v[n:]
	}
	b1, b2, omb1, omb2, c1, c2 := j.b1, j.b2, j.omb1, j.omb2, j.c1, j.c2
	lr, eps, lrwd, decay := j.lr, j.eps, j.lrwd, j.decay
	for i, g := range grads {
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
		a.m[key] = sparse.Compact(m, keep)
		a.v[key] = sparse.Compact(a.v[key], keep)
	}
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
