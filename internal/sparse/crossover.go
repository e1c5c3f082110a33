package sparse

// Sparse/dense execution crossover. The sparsity literature's consistent
// finding (Hoefler et al. 2021; the paper's Figure 1) is that sparse kernels
// beat dense ones only past a density threshold: above it, the dense
// kernel's register blocking and contiguous streaming outweigh the flop
// savings. For this package's CPU kernels that threshold is low — a CSR
// training step wins from about 30% sparsity (the grid above XoverDecide) —
// so the line sits at half density. The two paths sum different terms in
// different orders, so whatever picks between them decides result bits —
// which is why the pick is a rule over the pattern (XoverDecide), never a
// measurement: a sparse-exec run's numerics are a function of its inputs,
// not of the wall clock or of an earlier process. A layer's
// nn.SparseLinear.Exec pins its own path.

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

// ResetXover does nothing: no decision is remembered. Kept for bench/'s
// hermetic() until the next benchmark PR drops the call.
func ResetXover() {}

// XoverDecide is the crossover: the CSR path iff 2·nnz ≤ full — a pattern
// at least half sparse — else the dense GEMM over the masked-dense weight.
//
// With both sides vector kernels — the dense GEMM's AVX2 strip micro-kernel,
// CSR's AVX2 SpMMᵀ (lanes across the batch) and SDDMM — the grid below,
// read with SparseLinear.Exec pins (640×640, 512×640, 640×64, 128×512,
// 512×128, 1024×4096; 2 workers, min of 6–30 forward+backward steps, the
// gathered SDDMM weight gradient on both sides), gives dense-masked time ÷
// CSR time
//
//	sparsity   30%        50%        70%        75%        87.5%      90%        95%
//	batch 48   1.34–1.71  1.48–2.08  1.66–2.86  1.71–2.78  2.00–4.36  2.15–5.51  2.21–7.88
//	batch 576  0.94–1.11  0.93–1.19  1.26–1.45  1.28–1.60  1.39–2.11  1.41–2.35  1.49–3.54
//
// CSR wins a training step from 30% sparsity at batch 48 and from about
// 50–60% at batch 576, and at m = 1 and m = 8 at every density tested
// (1.8–3.0× at 50%, 2.6–4.4× at 75%, 3.9–8.8× at 90%). The line sits at
// half: every cell from 50% on is CSR's but the 0.93 corner at batch 576.
// Below half the step is CSR's at batch 48 but level at 576, and a line that
// moved with the batch would read m. The grid predates the windowed SDDMM
// (SDDMMInto: a pattern at least a quarter dense reads the batch-major
// operand, 1.5–2.2× the gathered kernel at 50%), which speeds the weight
// gradient of both paths alike — the dense-masked one computes it by SDDMM
// too.
//
// The rule reads neither m nor op: an m term would make a served sample's
// bits depend on the batch bucket it rode in, and row-invariance (see gemm
// in tensor/matmul.go, and TSpMMTInto) outranks that speed. Nor does it
// read the host: the line decides bits, so it is one line everywhere. On
// hosts without the vector kernels (the scalar kernels' grid: CSR ÷ dense
// 0.85–1.12 at 75%, 1.44–1.92 at 87.5%) a layer between 50% and 75% sparse
// now runs CSR where the dense path would be faster; the same model gives
// the same bits on every host, and SparseLinear.Exec = ExecDense is the
// escape hatch. (A re-run scatters a ratio by up to ±0.1.)
//
// An empty pattern (nnz ≤ 0: nothing to multiply densely for) returns a nil
// entry and the CSR path; otherwise the entry reports the choice.
// probe is always false. op, m, k, n and the two extra results are kept for
// bench/ until the next benchmark PR drops them.
func XoverDecide(op XoverOp, m, k, n, nnz, full int) (e *XoverEntry, c XoverChoice, probe bool) {
	if nnz <= 0 {
		return nil, XoverSparse, false
	}
	c = XoverDense
	if 2*nnz <= full {
		c = XoverSparse
	}
	return &xoverEntries[c], c, false
}
