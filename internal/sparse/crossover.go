package sparse

// The sparse/dense crossover rule, kept only for bench/, which compiles
// against these names (bench/probes.go reports sparse.xover_sparse_share
// from them). It routes no layer: an nn.Linear whose weight has a CSR runs
// the CSR kernels at every density, and a weight meant to compute densely
// keeps no CSR (a masked nn.Linear). The next benchmark PR deletes this file.

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

// XoverDecide is the retired crossover rule: the CSR path iff 2·nnz ≤ full
// — a pattern at least half sparse — else the dense GEMM over the
// masked-dense weight. Nothing in the engine asks it; bench/ still reports
// its answer. An empty pattern (nnz ≤ 0) returns a nil entry and the CSR
// path; otherwise the entry reports the choice. probe is always false.
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
