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
// The quarter was a measurement against the scalar dense GEMM (PR 22: one
// crossing at a quarter density on six FC shapes), and runtime probing froze
// exactly those answers on the benchmark's workloads. Since the dense GEMM
// got its AVX2 micro-kernel the same grid, re-read with SparseLinear.Exec
// pins (640×640, 512×640, 640×64, 128×512, 512×128, 1024×4096; 2 workers,
// min of 6–30 forward+backward steps, SDDMM weight gradient on both sides),
// gives dense-masked time ÷ CSR time
//
//	sparsity   70%        75%        80%        87.5%      90%        95%
//	batch 48   0.38–0.48  0.44–0.51  0.50–0.69  0.62–0.77  0.58–0.95  0.87–1.52
//	batch 576  0.29–0.41  0.28–0.40  0.31–0.41  0.29–0.50  0.38–0.59  0.52–0.75
//
// so the crossing now sits near 90–95% at batch 48 and beyond 95% at batch
// 576: the paper's Fig. 1. The line stays at a quarter all the same —
// moving it changes the bits of every sparse-exec layer between the old
// line and the new, which is a numerics change with its own claim (ROADMAP
// item 7), not a comment edit — and on AVX2 hosts it now errs on the CSR
// side: a layer between 75% and about 90% sparse runs CSR where
// dense-masked would be up to 2.3× faster at batch 48 and up to 3.4× at
// batch 576. SparseLinear.Exec = ExecDense is the escape hatch. (On hosts
// without the vector kernel PR 22's grid — 0.85–1.12 at 75%, 1.44–1.92 at
// 87.5% — and the quarter still hold. A re-run scatters a ratio by up to
// ±0.1.)
//
// It is also wrong at tiny batch, the other way: at m = 1 CSR wins at every
// density tested (1.5–2.0× at 70–75% for a training step, 4.0–5.5× in eval,
// where the dense path re-expands O(out·in) per forward; 3.2–6.9× and
// 10–23× at 90–95%) while the rule picks dense up to 75%. At m = 8 the
// quarter is about right: dense wins 0.60–0.94 at 75%, CSR 0.91–1.69 at
// 87.5%. The rule reads neither m nor op regardless: an m term would make a
// served sample's bits depend on the batch bucket it rode in, and
// row-invariance (see gemm in tensor/matmul.go) outranks that speed. A
// caller running a below-75%-sparse layer at m = 1 pins SparseLinear.Exec.
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
