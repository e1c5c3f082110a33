package sparse

import (
	"fmt"
	"sync/atomic"
)

// Sparse/dense execution crossover. The sparsity literature's consistent
// finding (Hoefler et al. 2021; the paper's Figure 1) is that sparse kernels
// beat dense ones only past a density threshold: above it, the dense
// kernel's register blocking and contiguous streaming outweigh the flop
// savings. The two paths sum different terms in different orders, so
// whatever picks between them decides result bits — which is why the pick
// is a rule over the pattern (XoverDecide), never a measurement: a
// sparse-exec run's numerics are a function of its inputs, not of the wall
// clock or of an earlier process. SetXover pins one path process-wide.

// XoverChoice is one execution path of a sparse-or-dense product.
type XoverChoice uint8

const (
	// XoverSparse runs the CSR kernel (SpMMT).
	XoverSparse XoverChoice = iota
	// XoverDense runs the dense GEMM against a masked-dense materialization.
	XoverDense
)

func (c XoverChoice) String() string {
	if c == XoverDense {
		return "dense"
	}
	return "sparse"
}

// XoverOp names which product of a sparse layer is asked about. The rule
// does not read it; the type and its two values are kept for bench/, which
// compiles against them, until the next benchmark PR drops them.
type XoverOp uint8

const (
	// XoverOpForward is the y = x·Wᵀ product.
	XoverOpForward XoverOp = iota
	// XoverOpBackward is the dx = dy·W product.
	XoverOpBackward
)

// XoverEntry reports one decision. Kept, with Decided, for bench/ until the
// next benchmark PR reads XoverDecide's choice directly.
type XoverEntry struct{ choice XoverChoice }

// xoverEntries are the two immutable entries XoverDecide hands out.
var xoverEntries = [...]XoverEntry{{XoverSparse}, {XoverDense}}

// Decided returns the entry's choice; a decision is never pending.
func (e *XoverEntry) Decided() (XoverChoice, bool) { return e.choice, true }

// xoverForce: 0 applies the rule (auto); otherwise every decision returns
// the forced XoverChoice, stored as choice+1.
var xoverForce atomic.Int32

// SetXover pins every crossover decision to "sparse" or "dense", or
// restores the density rule with "auto" (the initial mode). It returns the
// previous mode so tests and benchmarks can scope the override.
func SetXover(mode string) (prev string, err error) {
	prev = "auto"
	if p := xoverForce.Load(); p > 0 {
		prev = XoverChoice(p - 1).String()
	}
	force := int32(-1)
	if mode == "auto" {
		force = 0
	}
	for _, c := range []XoverChoice{XoverSparse, XoverDense} {
		if mode == c.String() {
			force = int32(c) + 1
		}
	}
	if force < 0 {
		return prev, fmt.Errorf("sparse: SetXover(%q): want auto, sparse or dense", mode)
	}
	xoverForce.Store(force)
	return prev, nil
}

// ResetXover does nothing: no decision is remembered. Kept for bench/'s
// hermetic() until the next benchmark PR drops the call.
func ResetXover() {}

// XoverDecide is the crossover: the CSR path iff 4·nnz < full — a pattern
// more than 75% sparse — else the dense GEMM over the masked-dense weight.
//
// The quarter is a measurement, reproducible with SparseLinear.Exec pins:
// over six FC shapes (640×640, 512×640, 640×64, 128×512, 512×128,
// 1024×4096; 2 workers, min of 8–40 forward+backward steps) dense-masked
// time ÷ CSR time at batch 48 and 576 is 0.74–0.94 at 70% sparsity,
// 0.85–1.12 at 75%, 0.95–1.26 at 80%, 1.44–1.92 at 87.5% and 1.65–2.19 at
// 90% — one crossing, at a quarter density, on every shape — and runtime
// probing froze exactly these answers on the benchmark's workloads. (A
// re-run scatters a ratio by up to ±0.2 — the GEMM tuner's blocking and the
// box's neighbours move the dense side — so the line is good to about one
// step of that grid: at 70% CSR wins nowhere by more than 1.05×, by 87.5%
// it wins everywhere by at least 1.33×.)
//
// It is known to be wrong at tiny batch: at m = 1 CSR wins at every density
// tested (1.3–4.6× for a training step, 3.1–16.8× in eval, where the dense
// path re-expands O(out·in) per forward) and at m = 8 already from 70–75%
// sparsity (1.09–1.63× at 75%). The rule reads neither m nor op regardless:
// an m term would make a served sample's bits depend on the batch bucket it
// rode in, and row-invariance (see gemm in tensor/matmul.go) outranks that
// speed. A caller running a below-75%-sparse layer at m ≤ 8 pins
// SparseLinear.Exec.
//
// A SetXover mode and an empty pattern (nnz ≤ 0: nothing to multiply
// densely for) return a nil entry; otherwise the entry reports the choice.
// probe is always false. op, m, k, n and the two extra results are kept for
// bench/ until the next benchmark PR drops them.
func XoverDecide(op XoverOp, m, k, n, nnz, full int) (e *XoverEntry, c XoverChoice, probe bool) {
	if f := xoverForce.Load(); f > 0 {
		return nil, XoverChoice(f - 1), false
	}
	if nnz <= 0 {
		return nil, XoverSparse, false
	}
	c = XoverDense
	if 4*nnz < full {
		c = XoverSparse
	}
	return &xoverEntries[c], c, false
}
