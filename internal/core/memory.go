// Package core implements SAMO — Sparsity-aware Memory Optimization — the
// paper's primary contribution (§III). After a pruning algorithm marks a
// fraction p of the parameters as zero, SAMO:
//
//   - keeps the half-precision parameters θ16 DENSE (zeros filled in), so the
//     forward and backward passes run on fast dense kernels unchanged;
//   - stores every other model state — θ32, ∇θ16 and the optimizer states —
//     COMPRESSED to the unpruned coordinates, all sharing one linearized
//     int32 index tensor per layer;
//   - compresses gradients at layer granularity during the backward pass, so
//     dense gradients for the whole model never coexist: ModelState holds
//     every layer's dense gradient in one scratch sized to the largest layer,
//     which the layers take turns to fill and capture;
//   - runs the optimizer directly on the compressed vectors and "expands"
//     the down-cast parameters back to dense θ16.
//
// The memory accounting in this file is the paper's §III-D analytical model,
// which also charges an fp32 gradient ∇θ32 per stored element. ModelState in
// state.go is the working implementation: it up-scales ∇θ16 in place and
// stores no ∇θ32, so its ledger is the model less 4 B per stored element,
// as tests cross-check.
package core

import (
	"fmt"
	"math"
)

// Bytes-per-parameter constants of mixed-precision training with Adam
// (§III-D): θ16 and ∇θ16 are 2 bytes, θ32 and ∇θ32 are 4, and Adam keeps
// two fp32 moments (8 bytes).
const (
	BytesTheta16  = 2
	BytesGrad16   = 2
	BytesTheta32  = 4
	BytesGrad32   = 4
	BytesOptState = 8
	BytesIndex    = 4 // one int32 per unpruned parameter
)

// DefaultModelStateBytes returns M_default = 20φ: the model-state memory of
// ordinary mixed-precision training with Adam for φ parameters.
func DefaultModelStateBytes(phi int64) int64 {
	return phi * (BytesTheta16 + BytesGrad16 + BytesTheta32 + BytesGrad32 + BytesOptState)
}

// SAMOModelStateBytes returns M_SAMO = 24fφ + 2φ (eq. 2), where f = 1−p:
// 18fφ for the compressed states, 4fφ for the shared index, 2φ for dense
// θ16, and 2fφ for the temporary compressed half-precision copy created in
// the optimizer's down-cast step.
func SAMOModelStateBytes(phi int64, p float64) int64 {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("core: sparsity %g out of [0,1]", p))
	}
	f := 1 - p
	return int64(math.Round(24*f*float64(phi))) + 2*phi
}

// SavingsPercent returns the relative saving 100·(24p−6)/20, the y-axis of
// the paper's Figure 2.
func SavingsPercent(p float64) float64 {
	return 100 * (24*p - 6) / 20
}

// BreakEvenSparsity is the sparsity where SAMO's index and temporary-copy
// overheads are exactly paid for: 24p − 6 = 0.
const BreakEvenSparsity = 0.25

// MemoryBreakdown itemizes model-state memory by component for one
// configuration. All quantities are bytes.
type MemoryBreakdown struct {
	Theta16   int64 // dense fp16 parameters (always 2φ)
	Grad16    int64 // fp16 gradients (2fφ compressed, 2φ dense)
	Theta32   int64 // fp32 master parameters
	Grad32    int64 // fp32 gradients
	OptStates int64 // Adam moments
	Index     int64 // shared int32 indices (SAMO only)
	TempCopy  int64 // compressed fp16 copy in the down-cast step (SAMO only)
}

// Total sums all components.
func (m MemoryBreakdown) Total() int64 {
	return m.Theta16 + m.Grad16 + m.Theta32 + m.Grad32 + m.OptStates + m.Index + m.TempCopy
}

// DefaultBreakdown itemizes ordinary mixed-precision training.
func DefaultBreakdown(phi int64) MemoryBreakdown {
	return MemoryBreakdown{
		Theta16:   BytesTheta16 * phi,
		Grad16:    BytesGrad16 * phi,
		Theta32:   BytesTheta32 * phi,
		Grad32:    BytesGrad32 * phi,
		OptStates: BytesOptState * phi,
	}
}

// SAMOBreakdown itemizes SAMO storage for kept = fφ unpruned parameters out
// of φ total.
func SAMOBreakdown(phi, kept int64) MemoryBreakdown {
	return MemoryBreakdown{
		Theta16:   BytesTheta16 * phi,
		Grad16:    BytesGrad16 * kept,
		Theta32:   BytesTheta32 * kept,
		Grad32:    BytesGrad32 * kept,
		OptStates: BytesOptState * kept,
		Index:     BytesIndex * kept,
		TempCopy:  BytesTheta16 * kept,
	}
}

// GiB formats a byte count in binary gigabytes.
func GiB(b int64) float64 { return float64(b) / (1 << 30) }
