package tensor

import (
	"fmt"
	"testing"
)

// FuzzMatMulInto drives every GEMM dispatch path — the saxpy small-shape
// kernel, and the in-place and packed blockings under both strip kernels
// (bothGemmKernels) — against the naive triple loop over fuzzer-chosen
// shapes. Shapes are folded into ranges that cross the dispatch boundaries
// (m around gemmMR and the rule's line, k and n around the v2 gate, the
// kc/nc blockings and the 8-wide strip width), and both blockings run at
// every m, each checked BITWISE against the Go kernel's in-place sweep: the
// rule picks by m, so a divergence would let the batch height perturb
// results. Last, the row-invariance contract (see gemm): rows recomputed
// alone and in short blocks, through the dispatcher and through every
// blocking, carry the full product's bits.
func FuzzMatMulInto(f *testing.F) {
	// Seeded degenerate corpus: dispatch-gate boundaries, micro-kernel
	// remainders, panel-boundary crossings, strip tails, empty dims.
	f.Add(uint16(0), uint16(8), uint16(8), uint64(1), false)
	f.Add(uint16(1), uint16(16), uint16(16), uint64(2), false)   // m=1: a lone remainder row
	f.Add(uint16(3), uint16(15), uint16(17), uint64(3), true)    // k below the v2 gate: saxpy
	f.Add(uint16(4), uint16(16), uint16(16), uint64(4), false)   // exactly at the v2 gate
	f.Add(uint16(5), uint16(129), uint16(130), uint64(5), false) // nc=128 remainder
	f.Add(uint16(8), uint16(257), uint16(129), uint64(6), true)  // kc=256 crossing
	f.Add(uint16(7), uint16(300), uint16(9), uint64(7), false)   // n below the v2 gate, odd k
	f.Add(uint16(40), uint16(300), uint16(200), uint64(8), false)
	f.Add(uint16(47), uint16(319), uint16(223), uint64(9), true) // max folded shape
	f.Add(uint16(3), uint16(24), uint16(32), uint64(10), false)  // a served MLP batch of 3: strip at m < gemmMR
	f.Add(uint16(129), uint16(66), uint16(40), uint64(11), true) // one row above the rule's line: B packed
	f.Fuzz(func(t *testing.T, mr, kr, nr uint16, seed uint64, accumulate bool) {
		m, k, n := int(mr%160), int(kr%320), int(nr%224)
		rng := NewRNG(seed | 1)
		a, b := New(m, k), New(k, n)
		fillSeq(a, rng)
		fillSeq(b, rng)

		want := refMatMul(a, b)
		cSeed := New(m, n)
		fillSeq(cSeed, rng)
		if accumulate {
			Add(want, cSeed)
		}

		var first *Tensor
		bothGemmKernels(t, func() {
			// 1. The public dispatcher, whatever blocking the rule gives m.
			got := cSeed.Clone()
			MatMulInto(got, a, b, accumulate)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("MatMulInto(%dx%dx%d, acc=%v) differs from naive by %g", m, k, n, accumulate, d)
			}

			if m == 0 || k == 0 || n == 0 {
				return // the blockings are only reachable through dispatch for non-empty dims
			}
			// 2. Both blockings at this m, pinned to naive and bitwise to each other.
			for _, bl := range ruleBlockings(gemmNN) {
				out := cSeed.Clone()
				gemmV2(gemmNN, out.data, a.data, b.data, m, k, n, accumulate, bl)
				if d := MaxAbsDiff(out, want); d > tol(k) {
					t.Fatalf("blocking %+v on %dx%dx%d differs from naive by %g", bl, m, k, n, d)
				}
				if first == nil {
					first = out
				} else if i, ok := bitwiseEqual(out, first); !ok {
					t.Fatalf("blocking %+v on %dx%dx%d: not bitwise-equal to the Go kernel's in-place sweep at index %d",
						bl, m, k, n, i)
				}
			}
			// 3. Row invariance, of the dispatcher and of both blockings.
			lo, hi := rowWindow(m, seed)
			checkRowInvariant(t, "MatMulInto", got, cSeed, rowHeights, lo, hi, 0, func(out *Tensor, lo, hi int) {
				MatMulInto(out, a.Slice(lo, hi), b, accumulate)
			})
			for bi, bl := range ruleBlockings(gemmNN) {
				checkRowInvariant(t, fmt.Sprintf("blocking %+v", bl), first, cSeed, rowHeights, lo, hi, bi, func(out *Tensor, lo, hi int) {
					gemmV2(gemmNN, out.data, a.data[lo*k:hi*k], b.data, hi-lo, k, n, accumulate, bl)
				})
			}
		})
	})
}

// rowHeights are the block heights the row-invariance checks recompute rows
// at: a row alone, heights below, at and just above the 4-row micro-kernel,
// and two strips. rowWorkers are the worker counts they rotate through.
var (
	rowHeights = []int{1, 2, 3, 4, 5, 8}
	rowWorkers = []int{1, 2, 3, 4, 8}
)

// rowWindow places a window of up to 16 rows inside [0,m) from pick: the
// fuzz targets recompute only those rows, so an execution stays cheap at
// m in the hundreds.
func rowWindow(m int, pick uint64) (lo, hi int) {
	if m <= 16 {
		return 0, m
	}
	lo = int(pick % uint64(m-15))
	return lo, lo + 16
}

// checkRowInvariant pins the row-invariance contract (stated above gemm) on
// one product. full holds C for every row; mul(out, lo, hi) must compute
// rows [lo,hi) of the same product alone, into out, which arrives holding
// those rows of cSeed. Rows [w0,w1) are recomputed in blocks of each height —
// the last block of a height may be short — at worker counts rotating
// through rowWorkers from rot, and every block must match full bit for bit.
func checkRowInvariant(t *testing.T, what string, full, cSeed *Tensor, heights []int, w0, w1, rot int, mul func(out *Tensor, lo, hi int)) {
	t.Helper()
	defer SetWorkers(SetWorkers(0))
	for hx, h := range heights {
		w := rowWorkers[(rot+hx)%len(rowWorkers)]
		SetWorkers(w)
		for lo := w0; lo < w1; lo += h {
			hi := min(lo+h, w1)
			out := cSeed.Slice(lo, hi).Clone()
			mul(out, lo, hi)
			if i, ok := bitwiseEqual(out, full.Slice(lo, hi)); !ok {
				t.Fatalf("%s, workers=%d: rows [%d,%d) computed alone differ from the same rows of the %d-row product at index %d",
					what, w, lo, hi, full.shape[0], i)
			}
		}
	}
}

// FuzzMatMulTInto drives the C = A·Bᵀ dispatcher — the tiled small-shape
// kernel and the strip blocking under both strip kernels — against the
// naive triple loop over fuzzer-chosen shapes, with the same
// dispatch-boundary folding as FuzzMatMulInto; the vector kernel's output
// is additionally checked BITWISE against the Go kernel's (a host must not
// change a bit), and against the forward product's in-place sweep over the
// materialized Bᵀ at every m (the transpose-pack relocates bytes, never
// reorders an operation), and the dispatcher and the blocking are held to
// the row-invariance contract like the forward product's.
func FuzzMatMulTInto(f *testing.F) {
	seedTransposedCorpus(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint16, seed uint64, accumulate bool) {
		m, k, n := int(mr%320), int(kr%320), int(nr%224)
		rng := NewRNG(seed | 1)
		a, b := New(m, k), New(n, k)
		fillSeq(a, rng)
		fillSeq(b, rng)

		want := refMatMulT(a, b)
		cSeed := New(m, n)
		fillSeq(cSeed, rng)
		if accumulate {
			Add(want, cSeed)
		}

		var first *Tensor
		bothGemmKernels(t, func() {
			got := cSeed.Clone()
			MatMulTInto(got, a, b, accumulate)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("MatMulTInto(%dx%dx%d, acc=%v) differs from naive by %g", m, k, n, accumulate, d)
			}

			if m == 0 || k == 0 || n == 0 {
				return
			}
			for _, bl := range ruleBlockings(gemmNT) {
				out := cSeed.Clone()
				gemmV2(gemmNT, out.data, a.data, b.data, m, k, n, accumulate, bl)
				if d := MaxAbsDiff(out, want); d > tol(k) {
					t.Fatalf("NT blocking %+v on %dx%dx%d differs from naive by %g", bl, m, k, n, d)
				}
				if first == nil {
					first = out
				} else if i, ok := bitwiseEqual(out, first); !ok {
					t.Fatalf("NT blocking %+v on %dx%dx%d: not bitwise-equal to the Go kernel's at index %d",
						bl, m, k, n, i)
				}
			}
			checkInPlace(t, "NT", first, cSeed, a, Transpose(b), accumulate)
			lo, hi := rowWindow(m, seed)
			checkRowInvariant(t, "MatMulTInto", got, cSeed, rowHeights, lo, hi, 0, func(out *Tensor, lo, hi int) {
				MatMulTInto(out, a.Slice(lo, hi), b, accumulate)
			})
			for bi, bl := range ruleBlockings(gemmNT) {
				checkRowInvariant(t, fmt.Sprintf("NT blocking %+v", bl), first, cSeed, rowHeights, lo, hi, bi, func(out *Tensor, lo, hi int) {
					gemmV2(gemmNT, out.data, a.data[lo*k:hi*k], b.data, hi-lo, k, n, accumulate, bl)
				})
			}
		})
	})
}

// FuzzTMatMulInto is FuzzMatMulTInto's twin for C = Aᵀ·B, which
// additionally exercises the per-block Aᵀ transpose-pack; its in-place
// cross-check sweeps the materialized Aᵀ.
func FuzzTMatMulInto(f *testing.F) {
	seedTransposedCorpus(f)
	f.Fuzz(func(t *testing.T, mr, kr, nr uint16, seed uint64, accumulate bool) {
		m, k, n := int(mr%320), int(kr%320), int(nr%224)
		rng := NewRNG(seed | 1)
		a, b := New(k, m), New(k, n)
		fillSeq(a, rng)
		fillSeq(b, rng)

		want := refTMatMul(a, b)
		cSeed := New(m, n)
		fillSeq(cSeed, rng)
		if accumulate {
			Add(want, cSeed)
		}

		var first *Tensor
		bothGemmKernels(t, func() {
			got := cSeed.Clone()
			TMatMulInto(got, a, b, accumulate)
			if d := MaxAbsDiff(got, want); d > tol(k) {
				t.Fatalf("TMatMulInto(%dx%dx%d, acc=%v) differs from naive by %g", m, k, n, accumulate, d)
			}

			if m == 0 || k == 0 || n == 0 {
				return
			}
			for _, bl := range ruleBlockings(gemmTN) {
				out := cSeed.Clone()
				gemmV2(gemmTN, out.data, a.data, b.data, m, k, n, accumulate, bl)
				if d := MaxAbsDiff(out, want); d > tol(k) {
					t.Fatalf("TN blocking %+v on %dx%dx%d differs from naive by %g", bl, m, k, n, d)
				}
				if first == nil {
					first = out
				} else if i, ok := bitwiseEqual(out, first); !ok {
					t.Fatalf("TN blocking %+v on %dx%dx%d: not bitwise-equal to the Go kernel's at index %d",
						bl, m, k, n, i)
				}
			}
			checkInPlace(t, "TN", first, cSeed, Transpose(a), b, accumulate)
		})
	})
}

// checkInPlace holds a transposed product's result, want, bitwise to the
// forward product's in-place sweep (gemmDirect) over the same operands
// materialized row-major, a (m,k) and b (k,n), from the same C seed.
func checkInPlace(t *testing.T, what string, want, cSeed, a, b *Tensor, accumulate bool) {
	t.Helper()
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := cSeed.Clone()
	gemmV2(gemmNN, out.data, a.data, b.data, m, k, n, accumulate, gemmDirect)
	if i, ok := bitwiseEqual(out, want); !ok {
		t.Fatalf("%s on %dx%dx%d: not bitwise-equal to the in-place sweep over the materialized operands at index %d",
			what, m, k, n, i)
	}
}

// seedTransposedCorpus seeds the degenerate corpus shared by both
// transposed-GEMM fuzz targets: dispatch-gate boundaries (the tiled
// fallback below k,n=16 — and, for C = Aᵀ·B only, below m=4), micro-kernel
// and strip-tail remainders,
// panel-boundary crossings (both transpose-packs have per-panel state),
// tall m, and empty dims. (The gemmTN row-block split, past m = 512, is
// beyond the fold; TestGEMMTransposedCandidatesGolden covers it.)
func seedTransposedCorpus(f *testing.F) {
	f.Add(uint16(0), uint16(8), uint16(8), uint64(1), false)
	f.Add(uint16(1), uint16(16), uint16(16), uint64(2), false)   // m=1: tiled remainder row
	f.Add(uint16(3), uint16(15), uint16(17), uint64(3), true)    // k below the v2 gate: tiled
	f.Add(uint16(4), uint16(16), uint16(16), uint64(4), false)   // exactly at the v2 gate
	f.Add(uint16(5), uint16(129), uint16(130), uint64(5), false) // nc=128 remainder
	f.Add(uint16(8), uint16(257), uint16(129), uint64(6), true)  // kc=256 crossing
	f.Add(uint16(7), uint16(300), uint16(9), uint64(7), false)   // n below the v2 gate (C = Aᵀ·B: one strip + 1-wide tail)
	f.Add(uint16(40), uint16(300), uint16(200), uint64(8), false)
	f.Add(uint16(3), uint16(24), uint16(32), uint64(13), false)   // a served batch of 3: v2 at m < gemmMR (C = A·Bᵀ)
	f.Add(uint16(33), uint16(319), uint16(130), uint64(9), true)  // odd k: global pairwise tail
	f.Add(uint16(150), uint16(300), uint16(40), uint64(10), true) // tall m, two remainder rows
	f.Add(uint16(300), uint16(319), uint16(66), uint64(11), true) // tallest folded m over two kc panels
	f.Add(uint16(319), uint16(318), uint16(223), uint64(12), true)
}
